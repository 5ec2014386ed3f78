#include "ir/unroll.hpp"

#include <map>
#include <utility>

#include "util/error.hpp"

namespace rsp::ir {

UnrolledGraph::UnrolledGraph(const LoopKernel& kernel)
    : trip_count_(kernel.trip_count()), body_size_(kernel.body().size()) {
  const DataflowGraph& body = kernel.body();
  ops_.reserve(static_cast<std::size_t>(trip_count_) *
               static_cast<std::size_t>(body_size_));

  // Memory disambiguation state per (array, element): the last store and
  // the loads issued since it. Loads take a RAW dependence on the last
  // store; stores take WAW on the last store and WAR on those loads.
  struct Location {
    OpId last_store = kInvalidOp;
    std::vector<OpId> loads_since_store;
  };
  std::map<std::pair<std::string, std::int64_t>, Location> memory_state;

  for (std::int64_t iter = 0; iter < trip_count_; ++iter) {
    for (NodeId nid = 0; nid < body_size_; ++nid) {
      const Node& node = body.node(nid);
      ConcreteOp op;
      op.kind = node.kind;
      op.body_node = nid;
      op.iter = iter;
      op.imm = node.imm;
      if (node.mem) {
        op.array = node.mem->array;
        op.address = node.mem->index(iter);
        if (op.address < 0)
          throw InvalidArgumentError(
              "kernel '" + kernel.name() + "' node " + std::to_string(nid) +
              " computes negative address at iteration " +
              std::to_string(iter));
      }

      const OpId self = iter * body_size_ + nid;
      if (node.mem) {
        Location& loc = memory_state[{op.array, op.address}];
        if (op.kind == OpKind::kLoad) {
          if (loc.last_store != kInvalidOp) op.mem_deps.push_back(loc.last_store);
          loc.loads_since_store.push_back(self);
        } else {  // store
          if (loc.last_store != kInvalidOp) op.mem_deps.push_back(loc.last_store);
          for (OpId ld : loc.loads_since_store) op.mem_deps.push_back(ld);
          loc.last_store = self;
          loc.loads_since_store.clear();
        }
      }

      std::size_t carried_cursor = 0;
      for (NodeId in : node.inputs) {
        ConcreteOperand operand;
        if (in != kInvalidNode) {
          operand.op = id_of(in, iter);
        } else {
          RSP_ASSERT(carried_cursor < node.carried.size());
          const CarriedInput& c = node.carried[carried_cursor++];
          if (iter >= c.distance) {
            operand.op = id_of(c.producer, iter - c.distance);
          } else {
            operand.op = kInvalidOp;
            operand.imm = c.init;
          }
        }
        RSP_ASSERT_MSG(operand.is_imm() || operand.op < self,
                       "unrolled graph must be topologically ordered");
        op.operands.push_back(operand);
      }
      ops_.push_back(std::move(op));
    }
  }
}

const ConcreteOp& UnrolledGraph::op(OpId id) const {
  if (id < 0 || id >= size()) throw NotFoundError("op id out of range");
  return ops_[static_cast<std::size_t>(id)];
}

OpId UnrolledGraph::id_of(NodeId node, std::int64_t iter) const {
  if (node < 0 || node >= body_size_ || iter < 0 || iter >= trip_count_)
    throw NotFoundError("(node, iter) out of range");
  return iter * body_size_ + node;
}

}  // namespace rsp::ir
