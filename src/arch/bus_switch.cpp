#include "arch/bus_switch.hpp"

namespace rsp::arch {

int BusSwitchSpec::select_bits() const {
  int bits = 0;
  int states = reachable_units + 1;  // +1 for "idle"
  while ((1 << bits) < states) ++bits;
  return bits;
}

BusSwitchSpec make_bus_switch(const SharingPlan& plan, int data_width_bits) {
  BusSwitchSpec spec;
  spec.reachable_units = plan.units_reachable_per_pe();
  spec.operand_width_bits = data_width_bits;
  return spec;
}

}  // namespace rsp::arch
