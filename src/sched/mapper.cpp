#include "sched/mapper.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/error.hpp"

namespace rsp::sched {

void MappingHints::validate() const {
  if (lanes <= 0) throw InvalidArgumentError("lanes must be positive");
  if (stagger < 0) throw InvalidArgumentError("stagger must be >= 0");
  if (columns <= 0) throw InvalidArgumentError("columns must be positive");
}

namespace {

/// Priority layout: waves are `wave_pitch` apart; inside a wave, the body
/// slot dominates and the lane breaks ties — lane order implements the
/// paper's "shared resources are assigned in the order of loop iteration".
struct PriorityLayout {
  std::int64_t wave_pitch;
  std::int64_t lanes;

  std::int64_t of(std::int64_t wave, std::int64_t slot,
                  std::int64_t lane) const {
    return (wave * wave_pitch + slot) * (lanes + 1) + lane;
  }
};

}  // namespace

PlacedProgram LoopPipeliner::map(const ir::LoopKernel& kernel,
                                 const MappingHints& hints,
                                 const ReductionSpec& reduction) const {
  ir::UnrolledGraph unrolled(kernel);
  return map(kernel, unrolled, hints, reduction);
}

PlacedProgram LoopPipeliner::map(const ir::LoopKernel& kernel,
                                 const ir::UnrolledGraph& unrolled,
                                 const MappingHints& hints,
                                 const ReductionSpec& reduction) const {
  hints.validate();
  if (hints.lanes > array_.rows)
    throw InfeasibleError("kernel '" + kernel.name() + "': " +
                          std::to_string(hints.lanes) +
                          " lanes exceed the array's " +
                          std::to_string(array_.rows) + " rows");
  if (hints.columns > array_.cols)
    throw InfeasibleError("kernel '" + kernel.name() +
                          "': columns exceed the array width");

  const std::int32_t body_len = kernel.body().size();
  const std::int64_t trips = kernel.trip_count();
  const std::int64_t lanes = hints.lanes;
  if (unrolled.body_size() != body_len || unrolled.trip_count() != trips)
    throw InvalidArgumentError("kernel '" + kernel.name() +
                               "': the unrolled graph is of another kernel");
  // Only memory ops name arrays.
  for (const std::string& name : unrolled.array_names())
    if (name.empty())
      throw InvalidArgumentError("memory op requires an array name");

  // The body is linearised in node-id order (already topological); the
  // wave pitch must exceed the body length so priorities stay monotone
  // along loop-carried edges between consecutive waves.
  const PriorityLayout prio{static_cast<std::int64_t>(body_len) + lanes,
                            lanes};

  const std::int64_t bands =
      hints.cycle_row_bands
          ? std::max<std::int64_t>(1, array_.rows / lanes)
          : 1;
  auto pe_of_iter = [&](std::int64_t iter) {
    const std::int64_t wave = iter / lanes;
    const std::int64_t lane = iter % lanes;
    const std::int64_t band = (wave / hints.columns) % bands;
    return arch::PeCoord{static_cast<int>(band * lanes + lane),
                         static_cast<int>(wave % hints.columns)};
  };

  // --- loop body: unrolled op i becomes program op i, in one pass --------
  PlacedProgram program(array_);
  const auto n = static_cast<std::size_t>(unrolled.size());
  // Room for the epilogue too: at most one add per partial (one per PE)
  // and one store per row.
  const std::size_t capacity =
      n + (reduction.enabled()
               ? static_cast<std::size_t>(array_.num_pes() + array_.rows)
               : 0);
  const auto size_columns = [n, capacity](auto&... columns) {
    ((columns.reserve(capacity), columns.resize(n)), ...);
  };
  size_columns(program.kind_, program.pe_, program.priority_, program.iter_,
               program.source_, program.imm_, program.array_id_,
               program.address_, program.not_before_);
  program.names_ = unrolled.array_names();
  program.operand_start_.reserve(capacity + 1);
  program.operands_.reserve(2 * capacity);  // no op kind takes more than 2
  program.dep_start_.reserve(capacity + 1);
  for (std::int64_t iter = 0; iter < trips; ++iter) {
    const std::int64_t wave = iter / lanes;
    const std::int64_t lane = iter % lanes;
    const arch::PeCoord pe = pe_of_iter(iter);
    for (ir::NodeId node = 0; node < body_len; ++node) {
      const ir::OpId uid = iter * body_len + node;
      const auto i = static_cast<std::size_t>(uid);
      program.kind_[i] = unrolled.kind(uid);
      program.pe_[i] = pe;
      program.priority_[i] = prio.of(wave, node, lane);
      program.iter_[i] = iter;
      program.source_[i] = uid;
      program.imm_[i] = unrolled.imm(uid);
      program.array_id_[i] = unrolled.array_id(uid);
      program.address_[i] = unrolled.address(uid);
      program.not_before_[i] = static_cast<int>(wave) * hints.stagger + node;

      for (const ir::ConcreteOperand& operand : unrolled.operands(uid)) {
        // Routability check with a kernel-level diagnostic.
        if (!operand.is_imm() &&
            array_.route(program.pe_[static_cast<std::size_t>(operand.op)],
                         pe) == arch::RouteKind::kNone)
          throw InvalidArgumentError(
              "kernel '" + kernel.name() +
              "': loop-carried dependence between iterations " +
              std::to_string(program.iter_[static_cast<std::size_t>(
                  operand.op)]) +
              " and " + std::to_string(iter) +
              " is not routable under the given mapping hints");
        program.operands_.push_back(ProgOperand{operand.op, operand.imm});
      }
      program.operand_start_.push_back(program.operands_.size());
      const std::span<const ir::OpId> deps = unrolled.mem_deps(uid);
      program.deps_.insert(program.deps_.end(), deps.begin(), deps.end());
      program.dep_start_.push_back(program.deps_.size());
    }
  }

  // --- reduction epilogue -------------------------------------------------
  if (reduction.enabled()) {
    if (reduction.source < 0 || reduction.source >= body_len)
      throw InvalidArgumentError("reduction source node out of range");
    if (reduction.array.empty())
      throw InvalidArgumentError("reduction requires a destination array");

    // Final value of the source node on every PE = the instance with the
    // highest priority per PE (the first one on a tie).
    std::vector<ProgIndex> partial(static_cast<std::size_t>(array_.num_pes()),
                                   kNoProducer);  // by ArraySpec::linear
    bool any_partial = false;
    for (std::int64_t iter = 0; iter < trips; ++iter) {
      const ProgIndex i = iter * body_len + reduction.source;
      ProgIndex& best = partial[static_cast<std::size_t>(
          array_.linear(program.pe_[static_cast<std::size_t>(i)]))];
      if (best == kNoProducer || program.priority_[static_cast<std::size_t>(
                                     best)] <
                                     program.priority_[static_cast<std::size_t>(i)])
        best = i;
      any_partial = true;
    }
    if (!any_partial)
      throw InvalidArgumentError("reduction source produced no partials");

    const std::int64_t num_waves = (trips + lanes - 1) / lanes;
    std::int64_t level = 0;
    auto epilogue_priority = [&]() {
      return prio.of(num_waves + level, body_len, 0) + level;
    };

    // Combines `b` into `a` (result lives on a's PE); returns new index.
    auto combine = [&](ProgIndex a, ProgIndex b) {
      ProgramOp add;
      add.kind = ir::OpKind::kAdd;
      add.pe = program.pe(a);
      add.priority = epilogue_priority();
      const ProgOperand operands[] = {{a, 0}, {b, 0}};
      return program.append(add, operands, {});
    };
    auto store_result = [&](ProgIndex value, std::int64_t index) {
      ProgramOp st;
      st.kind = ir::OpKind::kStore;
      st.pe = program.pe(value);
      st.priority = epilogue_priority();
      st.array = reduction.array;
      st.address = index;
      const ProgOperand operands[] = {{value, 0}};
      program.append(st, operands, {});
    };

    // Pairwise tree reduction in place; returns the root.
    auto tree_reduce = [&](std::vector<ProgIndex>& items) {
      while (items.size() > 1) {
        ++level;
        const std::size_t half = (items.size() + 1) / 2;
        for (std::size_t i = 0; i + half < items.size(); ++i)
          items[i] = combine(items[i], items[i + half]);
        items.resize(half);
      }
      return items.front();
    };
    // The partials of one column (by row) or one row (by column).
    std::vector<ProgIndex> items;
    auto gather = [&](int count, auto pe_at) {
      items.clear();
      for (int k = 0; k < count; ++k) {
        const ProgIndex p =
            partial[static_cast<std::size_t>(array_.linear(pe_at(k)))];
        if (p != kNoProducer) items.push_back(p);
      }
      return !items.empty();
    };

    if (reduction.scope == ReductionSpec::Scope::kAll) {
      // Phase 1: within each column, tree-reduce the lanes (column routes);
      // phase 2: reduce the column sums along a row.
      std::vector<ProgIndex> col_sums;
      for (int col = 0; col < array_.cols; ++col)
        if (gather(array_.rows, [col](int row) {
              return arch::PeCoord{row, col};
            }))
          col_sums.push_back(tree_reduce(items));
      ++level;
      const ProgIndex total = tree_reduce(col_sums);
      ++level;
      store_result(total, reduction.index0);
    } else {  // kPerRow: reduce along each row, store per row.
      for (int row = 0; row < array_.rows; ++row) {
        if (!gather(array_.cols,
                    [row](int col) { return arch::PeCoord{row, col}; }))
          continue;
        const ProgIndex sum = tree_reduce(items);
        ++level;
        store_result(sum, reduction.index0 + row);
        level -= 1;  // rows reduce in parallel: share priority bands
      }
      ++level;
    }
  }

  program.profile_ = std::make_shared<const TimingProfile>(program);
  return program;
}

}  // namespace rsp::sched
