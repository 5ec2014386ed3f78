// Loop-body dataflow graph.
//
// One `DataflowGraph` describes a single iteration of a kernel loop. Memory
// nodes carry an index function of the iteration number so the unroller can
// materialise concrete addresses; loop-carried inputs (accumulators,
// recurrences) reference a producer node in an earlier iteration together
// with the dependence distance and an initial value for boundary iterations.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ir/op.hpp"

namespace rsp::ir {

/// Index of a node inside its graph.
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Element index of a memory access as a function of the iteration number.
using IndexFn = std::function<std::int64_t(std::int64_t iter)>;

/// Memory reference of a load/store node.
struct MemRef {
  std::string array;  ///< name of the array in data memory
  IndexFn index;      ///< iteration -> element index
};

/// A dataflow input carried across loop iterations.
struct CarriedInput {
  NodeId producer = kInvalidNode;  ///< producing node in iteration iter-distance
  int distance = 1;                ///< dependence distance in iterations (>0)
  std::int64_t init = 0;           ///< value used when iter < distance
};

/// One operation of the loop body.
struct Node {
  OpKind kind = OpKind::kNop;
  /// Same-iteration dataflow inputs. An entry may be kInvalidNode if the
  /// corresponding operand comes from `carried`.
  std::vector<NodeId> inputs;
  /// Loop-carried operands, positionally aligned with kInvalidNode slots in
  /// `inputs` (first carried input fills the first invalid slot, etc.).
  std::vector<CarriedInput> carried;
  /// Immediate payload: constant value for kConst, shift amount for kShift
  /// (negative = arithmetic right shift).
  std::int64_t imm = 0;
  /// Memory reference; engaged iff kind is kLoad/kStore.
  std::optional<MemRef> mem;
  /// Optional debug label ("y[k]", "acc", ...).
  std::string label;
};

/// A directed acyclic graph over same-iteration edges; loop-carried edges may
/// form cycles through earlier iterations (that is their point).
class DataflowGraph {
 public:
  /// Appends a node; returns its id. Throws InvalidArgumentError when the
  /// operand count does not match the op arity or references are out of
  /// range / forward (same-iteration edges must point backwards so the node
  /// list is a topological order by construction).
  NodeId add(Node node);

  const Node& node(NodeId id) const;
  Node& node(NodeId id);
  std::int32_t size() const { return static_cast<std::int32_t>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }

  /// All nodes, in topological (insertion) order.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Ids of nodes whose value nobody consumes in the same iteration and that
  /// are not stores (useful for detecting dead code in kernel definitions).
  std::vector<NodeId> dead_value_nodes() const;

  /// Number of nodes of the given kind.
  int count(OpKind kind) const;

  /// Distinct op kinds present, in a stable order (for Table 3's
  /// "operation set" column). kConst/kRoute/kNop are omitted: the paper's
  /// operation sets list computational ops only.
  std::vector<OpKind> op_set() const;

  /// ASAP level of every node counting unit latency per op and ignoring
  /// loop-carried edges (they resolve to earlier iterations).
  std::vector<int> asap_levels() const;

  /// Depth = 1 + max ASAP level (0 for an empty graph).
  int depth() const;

  /// Full structural validation (arity, slot/carried alignment, memory refs
  /// present exactly on memory ops). add() already enforces most of this;
  /// validate() re-checks after any in-place mutation.
  void validate() const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace rsp::ir
