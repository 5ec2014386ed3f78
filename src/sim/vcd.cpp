#include "sim/vcd.hpp"

#include <map>
#include <sstream>

#include "util/error.hpp"

namespace rsp::sim {

namespace {

/// VCD identifier codes: printable ASCII starting at '!'.
std::string vcd_id(int index) {
  std::string id;
  index += 1;
  while (index > 0) {
    id.push_back(static_cast<char>('!' + (index - 1) % 94));
    index = (index - 1) / 94;
  }
  return id;
}

std::string bits_of(std::uint64_t value, int width) {
  std::string s = "b";
  for (int i = width - 1; i >= 0; --i)
    s.push_back(((value >> i) & 1u) ? '1' : '0');
  return s;
}

}  // namespace

std::string to_vcd(const sched::ConfigurationContext& context,
                   const SimResult& result) {
  const arch::ArraySpec& array = context.architecture().array;
  if (result.values.size() != static_cast<std::size_t>(context.size()))
    throw InvalidArgumentError(
        "SimResult does not belong to this context (op count differs)");

  std::ostringstream os;
  os << "$date generated by rsp-cgra $end\n"
     << "$version rsp-cgra simulator $end\n"
     << "$timescale 1ns $end\n"
     << "$scope module rsp_array $end\n";

  int next_signal = 0;
  const std::string cycle_id = vcd_id(next_signal++);
  os << "$var wire 16 " << cycle_id << " cycle $end\n";

  struct PeSignals {
    std::string opcode, value;
  };
  std::map<int, PeSignals> pe_signals;
  for (int r = 0; r < array.rows; ++r)
    for (int c = 0; c < array.cols; ++c) {
      const int lin = array.linear({r, c});
      PeSignals sig{vcd_id(next_signal++), vcd_id(next_signal++)};
      os << "$scope module pe_r" << r << "c" << c << " $end\n"
         << "$var wire 4 " << sig.opcode << " opcode $end\n"
         << "$var wire 16 " << sig.value << " result $end\n"
         << "$upscope $end\n";
      pe_signals[lin] = sig;
    }
  std::vector<std::string> row_reads, row_writes;
  for (int r = 0; r < array.rows; ++r) {
    row_reads.push_back(vcd_id(next_signal++));
    row_writes.push_back(vcd_id(next_signal++));
    os << "$var wire 2 " << row_reads.back() << " rbus_row" << r << " $end\n"
       << "$var wire 2 " << row_writes.back() << " wbus_row" << r
       << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  // Bucket ops by cycle.
  std::map<int, std::vector<sched::ProgIndex>> by_cycle;
  for (sched::ProgIndex i = 0; i < context.size(); ++i)
    by_cycle[context.op(i).cycle].push_back(i);

  for (int t = 0; t < context.length(); ++t) {
    os << "#" << t << "\n";
    os << bits_of(static_cast<std::uint64_t>(t), 16) << " " << cycle_id
       << "\n";
    std::map<int, int> reads, writes;
    auto it = by_cycle.find(t);
    if (it != by_cycle.end()) {
      for (sched::ProgIndex i : it->second) {
        const sched::ScheduledOp& op = context.op(i);
        const PeSignals& sig = pe_signals[array.linear(op.pe)];
        os << bits_of(static_cast<std::uint64_t>(op.kind) + 1, 4) << " "
           << sig.opcode << "\n";
        os << bits_of(static_cast<std::uint64_t>(
                          result.values[static_cast<std::size_t>(i)]) &
                          0xffffu,
                      16)
           << " " << sig.value << "\n";
        if (op.kind == ir::OpKind::kLoad) ++reads[op.pe.row];
        if (op.kind == ir::OpKind::kStore) ++writes[op.pe.row];
      }
    }
    for (int r = 0; r < array.rows; ++r) {
      os << bits_of(static_cast<std::uint64_t>(reads[r]), 2) << " "
         << row_reads[static_cast<std::size_t>(r)] << "\n";
      os << bits_of(static_cast<std::uint64_t>(writes[r]), 2) << " "
         << row_writes[static_cast<std::size_t>(r)] << "\n";
    }
  }
  os << "#" << context.length() << "\n";
  return os.str();
}

}  // namespace rsp::sim
