#include "ir/unroll.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace rsp::ir {

namespace {

/// Memory disambiguation state per (array, element): the last store and
/// the loads issued since it, chained oldest first through a per-op link
/// column. Open addressing over a power-of-two table sized for every
/// memory op, so it never grows.
class MemoryState {
 public:
  struct Location {
    ArrayId array = kNoArray;  ///< kNoArray marks an empty slot
    std::int64_t address = 0;
    OpId last_store = kInvalidOp;
    OpId first_load = kInvalidOp;
    OpId last_load = kInvalidOp;
  };

  explicit MemoryState(std::size_t max_locations) {
    std::size_t capacity = 16;
    while (capacity < 2 * max_locations) capacity *= 2;
    slots_.resize(capacity);
  }

  Location& at(ArrayId array, std::int64_t address) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = util::mix64(static_cast<std::uint64_t>(address) +
                                (static_cast<std::uint64_t>(array) << 40)) &
                    mask;
    for (;; i = (i + 1) & mask) {
      Location& loc = slots_[i];
      if (loc.array == kNoArray) {
        loc.array = array;
        loc.address = address;
        return loc;
      }
      if (loc.array == array && loc.address == address) return loc;
    }
  }

 private:
  std::vector<Location> slots_;
};

}  // namespace

UnrolledGraph::UnrolledGraph(const LoopKernel& kernel)
    : trip_count_(kernel.trip_count()), body_size_(kernel.body().size()) {
  const DataflowGraph& body = kernel.body();
  const auto trips = static_cast<std::size_t>(trip_count_);
  const std::size_t n = trips * static_cast<std::size_t>(body_size_);

  // Per body node: its interned array, and the list sizes of one iteration.
  std::vector<ArrayId> node_array(static_cast<std::size_t>(body_size_),
                                  kNoArray);
  std::size_t operands_per_iter = 0;
  std::size_t memory_ops_per_iter = 0;
  for (NodeId nid = 0; nid < body_size_; ++nid) {
    const Node& node = body.node(nid);
    operands_per_iter += node.inputs.size();
    if (!node.mem) continue;
    ++memory_ops_per_iter;
    const auto known = std::find(names_.begin(), names_.end(), node.mem->array);
    node_array[static_cast<std::size_t>(nid)] =
        static_cast<ArrayId>(known - names_.begin());
    if (known == names_.end()) names_.push_back(node.mem->array);
  }
  const std::size_t memory_ops = memory_ops_per_iter * trips;

  kind_.resize(n);
  imm_.resize(n);
  array_.resize(n);
  address_.resize(n);
  operand_start_.reserve(n + 1);
  operand_start_.push_back(0);
  operands_.reserve(operands_per_iter * trips);
  mem_dep_start_.reserve(n + 1);
  mem_dep_start_.push_back(0);
  // A memory op takes at most one dependence on the last store, and a load
  // enters at most one store's WAR list.
  mem_deps_.reserve(2 * memory_ops);
  MemoryState memory_state(memory_ops);
  std::vector<OpId> next_load(memory_ops == 0 ? 0 : n, kInvalidOp);

  for (std::int64_t iter = 0; iter < trip_count_; ++iter) {
    for (NodeId nid = 0; nid < body_size_; ++nid) {
      const Node& node = body.node(nid);
      const OpId self = iter * body_size_ + nid;
      const auto i = static_cast<std::size_t>(self);
      kind_[i] = node.kind;
      imm_[i] = node.imm;
      array_[i] = node_array[static_cast<std::size_t>(nid)];
      if (node.mem) {
        const std::int64_t address = node.mem->index(iter);
        if (address < 0)
          throw InvalidArgumentError(
              "kernel '" + kernel.name() + "' node " + std::to_string(nid) +
              " computes negative address at iteration " +
              std::to_string(iter));
        address_[i] = address;

        // Loads take a RAW dependence on the last store; stores take WAW on
        // the last store and WAR on the loads since it.
        MemoryState::Location& loc = memory_state.at(array_[i], address);
        if (loc.last_store != kInvalidOp) mem_deps_.push_back(loc.last_store);
        if (node.kind == OpKind::kLoad) {
          if (loc.first_load == kInvalidOp)
            loc.first_load = self;
          else
            next_load[static_cast<std::size_t>(loc.last_load)] = self;
          loc.last_load = self;
        } else {  // store
          for (OpId ld = loc.first_load; ld != kInvalidOp;
               ld = next_load[static_cast<std::size_t>(ld)])
            mem_deps_.push_back(ld);
          loc.last_store = self;
          loc.first_load = loc.last_load = kInvalidOp;
        }
      }
      mem_dep_start_.push_back(mem_deps_.size());

      std::size_t carried_cursor = 0;
      for (NodeId in : node.inputs) {
        ConcreteOperand operand;
        if (in != kInvalidNode) {
          operand.op = id_of(in, iter);
        } else {
          RSP_ASSERT(carried_cursor < node.carried.size());
          const CarriedInput& c = node.carried[carried_cursor++];
          if (iter >= c.distance)
            operand.op = id_of(c.producer, iter - c.distance);
          else
            operand.imm = c.init;
        }
        RSP_ASSERT_MSG(operand.is_imm() || operand.op < self,
                       "unrolled graph must be topologically ordered");
        operands_.push_back(operand);
      }
      operand_start_.push_back(operands_.size());
    }
  }
}

void UnrolledGraph::throw_out_of_range() {
  throw NotFoundError("op id out of range");
}

const std::string& UnrolledGraph::array_name(OpId id) const {
  static const std::string kNone;
  const ArrayId a = array_[at(id)];
  return a == kNoArray ? kNone : names_[static_cast<std::size_t>(a)];
}

OpId UnrolledGraph::id_of(NodeId node, std::int64_t iter) const {
  if (node < 0 || node >= body_size_ || iter < 0 || iter >= trip_count_)
    throw NotFoundError("(node, iter) out of range");
  return iter * body_size_ + node;
}

}  // namespace rsp::ir
