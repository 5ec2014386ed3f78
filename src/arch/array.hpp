// Reconfigurable array geometry and interconnect.
//
// A rectangular rows×cols mesh of PEs (Fig. 1a). Every row has the same
// fixed data-memory buses, kReadBusesPerRow read buses and kWriteBusesPerRow
// write buses (Fig. 1b: two and one in the paper's 4×4 illustration; the
// 8×8 experimental array keeps the same scheme), and every datapath is
// kDataWidthBits wide. These are constants of the template, not parameters
// of an architecture: only the geometry varies. PEs additionally talk to
// 4-neighbours and over row/column lines, which the mapper uses for operand
// routing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "util/error.hpp"

namespace rsp::arch {

/// Simultaneous loads per row per cycle.
inline constexpr int kReadBusesPerRow = 2;
/// Simultaneous stores per row per cycle.
inline constexpr int kWriteBusesPerRow = 1;
/// Bus and datapath width (paper §5.1: the bus width is extended to 16).
inline constexpr int kDataWidthBits = 16;

/// Position of a PE: row-major, 0-based.
struct PeCoord {
  int row = 0;
  int col = 0;

  bool operator==(const PeCoord&) const = default;
  auto operator<=>(const PeCoord&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PeCoord& c);

/// How two PEs may exchange a value in one hop.
enum class RouteKind {
  kSamePe,     // producer and consumer on the same PE (register file)
  kNeighbor,   // 4-neighbour link
  kRowLine,    // same row, via row interconnect/bus
  kColumnLine, // same column, via column interconnect
  kNone,       // not reachable in one hop
};

struct ArraySpec {
  int rows = 8;
  int cols = 8;

  int num_pes() const { return rows * cols; }

  /// Throws InvalidArgumentError unless the spec is well-formed.
  void validate() const;

  bool contains(PeCoord c) const {
    return c.row >= 0 && c.row < rows && c.col >= 0 && c.col < cols;
  }

  /// Row-major linear id of a PE.
  int linear(PeCoord c) const {
    RSP_ASSERT(contains(c));
    return c.row * cols + c.col;
  }

  PeCoord coord(int linear_id) const {
    RSP_ASSERT(linear_id >= 0 && linear_id < num_pes());
    return PeCoord{linear_id / cols, linear_id % cols};
  }

  /// Classifies the single-hop route from `from` to `to`.
  RouteKind route(PeCoord from, PeCoord to) const;

  bool operator==(const ArraySpec&) const = default;
};

}  // namespace rsp::arch
