#include "sim/machine.hpp"

#include "sim/program.hpp"

namespace rsp::sim {

SimResult Machine::run(const sched::ConfigurationContext& context,
                       ir::Memory& memory) const {
  return SimProgram::compile(context).run(memory, mode_);
}

}  // namespace rsp::sim
