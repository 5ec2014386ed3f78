// Complete architecture instances and the paper's nine named designs.
//
// `Architecture` bundles the array geometry, the PE variant and the sharing
// plan; `standard_suite()` returns Base, RS#1..RS#4 and RSP#1..RSP#4 exactly
// as evaluated in the paper's Tables 2, 4 and 5 (Fig. 8 topologies):
//   RS/RSP#1: one multiplier per row            (shr=1, shc=0)
//   RS/RSP#2: two multipliers per row           (shr=2, shc=0)
//   RS/RSP#3: two per row + one per column      (shr=2, shc=1)
//   RS/RSP#4: two per row + two per column      (shr=2, shc=2)
// RSP variants pipeline the shared multiplier into two stages.
#pragma once

#include <string>
#include <vector>

#include "arch/array.hpp"
#include "arch/resources.hpp"
#include "arch/sharing.hpp"

namespace rsp::arch {

struct Architecture {
  std::string name;
  ArraySpec array;
  PeSpec pe;
  SharingPlan sharing;

  /// True if multipliers are extracted from the PEs and shared.
  bool shares_multiplier() const { return sharing.shares(); }
  /// True if the (shared) multiplier is pipelined.
  bool pipelines_multiplier() const { return sharing.pipelines(); }

  /// Cycles a multiplication occupies from issue to result availability.
  int mult_latency() const {
    return pipelines_multiplier() ? sharing.pipeline_stages : 1;
  }

  void validate() const;

  bool operator==(const Architecture&) const = default;
};

/// The Morphosys-like base: 8×8, every PE owns its multiplier.
Architecture base_architecture(int rows = 8, int cols = 8);

/// RS#variant (variant in 1..4), multipliers shared, not pipelined.
Architecture rs_architecture(int variant, int rows = 8, int cols = 8);

/// RSP#variant (variant in 1..4), shared and 2-stage pipelined.
Architecture rsp_architecture(int variant, int rows = 8, int cols = 8,
                              int stages = 2);

/// Custom RSP design for exploration: any shr/shc/stage combination.
Architecture custom_architecture(std::string name, int rows, int cols,
                                 int units_per_row, int units_per_col,
                                 int stages);

/// [Base, RS#1..4, RSP#1..4] in the paper's table order.
std::vector<Architecture> standard_suite(int rows = 8, int cols = 8);

}  // namespace rsp::arch
