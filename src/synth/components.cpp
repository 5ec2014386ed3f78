#include "synth/components.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsp::synth {

ComponentLibrary::ComponentLibrary() {
  // Paper Table 1 (Virtex-II, Synplify Pro).
  mux_ = {58.0, 1.3};
  alu_ = {253.0, 11.5};
  multiplier_ = {416.0, 19.7};
  shift_ = {156.0, 2.5};
  // Output registers absorb the remaining PE area (910 - known components)
  // and the path margin that closes the 25.6 ns PE critical path.
  output_reg_ = {910.0 - (58.0 + 253.0 + 416.0 + 156.0), 2.1};
  base_pe_ = {910.0, 25.6};
  // Table 2: PE area drops to 489 once the multiplier is extracted; its
  // critical path becomes mux + ALU + shift = 1.3 + 11.5 + 2.5 = 15.3 ns,
  // matching the RSP PE delay column.
  shared_pe_ = {489.0, 15.3};
}

ComponentCost ComponentLibrary::component(arch::Resource r) const {
  switch (r) {
    case arch::Resource::kMultiplexer:
      return mux_;
    case arch::Resource::kAlu:
      return alu_;
    case arch::Resource::kArrayMultiplier:
      return multiplier_;
    case arch::Resource::kShiftLogic:
      return shift_;
    case arch::Resource::kOutputRegister:
      return output_reg_;
    case arch::Resource::kPipelineRegister:
      return {pipeline_reg_area_, pipeline_reg_delay_};
    case arch::Resource::kBusSwitch:
      throw InvalidArgumentError(
          "bus switch cost depends on its fan-out; use bus_switch(units)");
  }
  throw InternalError("unknown Resource");
}

ComponentCost ComponentLibrary::bus_switch(int reachable_units) const {
  if (reachable_units <= 0) return {0.0, 0.0};
  // Measured points (paper Table 2 SW columns), indexed by reachable units.
  static constexpr double kArea[] = {10.0, 34.0, 55.0, 68.0};
  static constexpr double kDelay[] = {0.7, 1.2, 1.8, 2.0};
  if (reachable_units <= 4)
    return {kArea[reachable_units - 1], kDelay[reachable_units - 1]};
  // Linear extrapolation using the last measured slope.
  const double area = kArea[3] + (reachable_units - 4) * (kArea[3] - kArea[2]);
  const double delay =
      kDelay[3] + (reachable_units - 4) * (kDelay[3] - kDelay[2]);
  return {area, delay};
}

double ComponentLibrary::wire_load_ns(int total_units,
                                      bool pipelined_units) const {
  if (total_units <= 0) return 0.0;
  // Calibrated on Table 2 at 8/16/24/32 total units. Registered (RSP) unit
  // outputs load the network less than combinational (RS) ones.
  static constexpr int kUnits[] = {8, 16, 24, 32};
  static constexpr double kRs[] = {0.55, 1.17, 1.49, 2.63};
  static constexpr double kRsp[] = {0.72, 0.76, 1.11, 1.53};
  const double* table = pipelined_units ? kRsp : kRs;

  if (total_units <= kUnits[0])
    return table[0] * static_cast<double>(total_units) / kUnits[0];
  for (int i = 1; i < 4; ++i) {
    if (total_units <= kUnits[i]) {
      const double t = static_cast<double>(total_units - kUnits[i - 1]) /
                       (kUnits[i] - kUnits[i - 1]);
      return table[i - 1] + t * (table[i] - table[i - 1]);
    }
  }
  const double slope = (table[3] - table[2]) / (kUnits[3] - kUnits[2]);
  return table[3] + slope * (total_units - kUnits[3]);
}

}  // namespace rsp::synth
