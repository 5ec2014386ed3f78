// Bus switch model (Fig. 4).
//
// Each PE of an RS/RSP architecture owns a bus switch that routes its two
// n-bit operands to one of the shared units it can reach and routes the
// 2n-bit product back. The switch is configured per cycle by the
// configuration cache; its hardware complexity grows with the number of
// reachable units, which is what makes aggressive sharing plans (RS#4)
// slower per Table 2.
#pragma once

#include <cstdint>

#include "arch/sharing.hpp"

namespace rsp::arch {

struct BusSwitchSpec {
  int reachable_units = 0;  ///< units selectable by this switch
  int operand_width_bits = 16;

  /// Selector bits needed in each configuration word (ceil(log2(units+1));
  /// the +1 encodes "no shared op this cycle").
  int select_bits() const;
};

/// Builds the switch spec implied by a sharing plan.
BusSwitchSpec make_bus_switch(const SharingPlan& plan, int data_width_bits);

}  // namespace rsp::arch
