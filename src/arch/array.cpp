#include "arch/array.hpp"

#include <cstdlib>
#include <ostream>

namespace rsp::arch {

std::ostream& operator<<(std::ostream& os, const PeCoord& c) {
  return os << "PE(" << c.row << "," << c.col << ")";
}

void ArraySpec::validate() const {
  if (rows <= 0 || cols <= 0)
    throw InvalidArgumentError("array must have positive dimensions");
}

RouteKind ArraySpec::route(PeCoord from, PeCoord to) const {
  RSP_ASSERT(contains(from) && contains(to));
  if (from == to) return RouteKind::kSamePe;
  const int dr = std::abs(from.row - to.row);
  const int dc = std::abs(from.col - to.col);
  if (dr + dc == 1) return RouteKind::kNeighbor;
  if (from.row == to.row) return RouteKind::kRowLine;
  if (from.col == to.col) return RouteKind::kColumnLine;
  return RouteKind::kNone;
}

}  // namespace rsp::arch
