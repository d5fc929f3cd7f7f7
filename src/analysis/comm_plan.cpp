#include "analysis/comm_plan.h"

#include <algorithm>

#include "array/aggregate.h"
#include "common/error.h"
#include "lattice/aggregation_tree.h"
#include "minimpi/proc_grid.h"

namespace cubist {
namespace {

/// Symbolically executes one rank's Figure-5 program (the control flow of
/// the tree walk in core/tree_walk.h under the per-rank hooks of
/// core/parallel_builder.cpp), emitting planned operations
/// instead of touching data. Any drift between this walk and the real
/// builder shows up as a ledger-audit failure, which is the point: the
/// plan is the checkable artifact, the builder is the implementation.
class RankPlanner {
 public:
  RankPlanner(const ScheduleSpec& spec, const ProcGrid& grid,
              const AggregationTree& tree, int rank)
      : spec_(spec),
        grid_(grid),
        tree_(tree),
        rank_(rank),
        block_(grid.block(rank, spec.sizes)) {}

  RankPlan run(std::map<std::uint32_t, std::int64_t>& elements_by_view,
               std::map<std::uint32_t, ReduceAlgorithm>& algorithm_by_view) {
    elements_by_view_ = &elements_by_view;
    algorithm_by_view_ = &algorithm_by_view;
    compute_children(tree_.root());
    descend(tree_.root());
    return std::move(plan_);
  }

 private:
  /// Cells of this rank's block of `view` (the root block restricted to
  /// the retained dimensions; each aggregation removes one dimension).
  std::int64_t view_cells(DimSet view) const {
    std::int64_t cells = 1;
    for (int d : view.dims()) cells *= block_.extent(d);
    return cells;
  }

  std::int64_t view_bytes(DimSet view) const {
    return view_cells(view) * spec_.bytes_per_cell;
  }

  void compute_children(DimSet view) {
    const std::vector<int> view_dims = view.dims();
    std::vector<int> aggregated_positions;
    for (DimSet child : tree_.children(view)) {
      const int aggregated = view.minus(child).min_dim();
      int pos = 0;
      while (view_dims[pos] != aggregated) ++pos;
      aggregated_positions.push_back(pos);
      plan_.memory.push_back({PlannedMemoryEvent::Kind::kAlloc, child.mask(),
                              view_bytes(child)});
    }
    if (aggregated_positions.empty()) return;
    // Charge the scan's transient stripe-scratch ceiling (the kernels'
    // deterministic stripe policy; see docs/PERFORMANCE.md). The bound
    // only depends on the parent block's shape, so the plan stays valid
    // for every chunk layout, density, and thread count.
    std::vector<std::int64_t> parent_extents;
    parent_extents.reserve(view_dims.size());
    for (int d : view_dims) parent_extents.push_back(block_.extent(d));
    plan_.max_scan_scratch_bytes =
        std::max(plan_.max_scan_scratch_bytes,
                 scan_scratch_bound(Shape{parent_extents},
                                    aggregated_positions,
                                    spec_.bytes_per_cell));
  }

  void descend(DimSet view) {
    const std::vector<DimSet> kids = tree_.children(view);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      const DimSet child = *it;
      const int aggregated = view.minus(child).min_dim();
      const std::vector<int> group = grid_.axis_group(rank_, aggregated);
      if (group.size() > 1) {
        plan_reduce(group, child);
      }
      if (grid_.is_lead(rank_, aggregated)) {
        if (tree_.is_leaf(child)) {
          write_back(child);
        } else {
          compute_children(child);
          descend(child);
          write_back(child);
        }
      } else {
        plan_.memory.push_back({PlannedMemoryEvent::Kind::kRelease,
                                child.mask(), view_bytes(child)});
      }
    }
  }

  /// The chunk-pipelined reduction of Comm::reduce, as planned
  /// operations. The schedule (binomial / ring / two-level; kAuto via
  /// the tuner) comes from the SAME generator the runtime executes
  /// (minimpi/collectives.h), resolved on the same static inputs — so
  /// whatever the tuner picks is exactly what gets verified. Chunk-
  /// outer, step-inner: each chunk runs the whole per-member schedule
  /// before the next chunk starts. Zero-size blocks plan nothing (the
  /// runtime skips the wire entirely). Planned element counts are
  /// LOGICAL (dense) sizes; the adaptive wire codec only ever shrinks
  /// them, which is what the wire audit certifies.
  void plan_reduce(const std::vector<int>& group, DimSet child) {
    const int g = static_cast<int>(group.size());
    int me = -1;
    for (int i = 0; i < g; ++i) {
      if (group[i] == rank_) me = i;
    }
    CUBIST_ASSERT(me >= 0, "rank not in its own axis group");
    const std::int64_t total = view_cells(child);
    if (total == 0 || g == 1) return;
    const ReduceAlgorithm algorithm = resolve_reduce_algorithm(
        spec_.reduce_algorithm, group, total, spec_.reduce_message_elements,
        spec_.model, spec_.reduce_density_hint, spec_.encode_wire);
    (*algorithm_by_view_)[child.mask()] = algorithm;
    const std::int64_t piece = reduce_chunk_elements(
        algorithm, total, g, spec_.reduce_message_elements);
    const std::vector<ReduceStep> steps =
        reduce_chunk_steps(algorithm, group, me, spec_.model.topology);
    for (std::int64_t offset = 0; offset < total; offset += piece) {
      const std::int64_t count = std::min(piece, total - offset);
      for (const ReduceStep& step : steps) {
        if (step.kind == ReduceStep::Kind::kSend) {
          plan_.ops.push_back({PlannedOp::Kind::kSend, step.peer,
                               child.mask(), count, offset});
          (*elements_by_view_)[child.mask()] += count;
        } else {
          // Each receive is immediately folded into the local block: the
          // combine is a first-class IR event because its ORDER (fixed
          // step order, deterministic by construction for every
          // algorithm) is exactly what the interleaving checker
          // certifies.
          plan_.ops.push_back({PlannedOp::Kind::kRecv, step.peer,
                               child.mask(), count, offset});
          plan_.ops.push_back({PlannedOp::Kind::kCombine, step.peer,
                               child.mask(), count, offset});
        }
      }
    }
  }

  void write_back(DimSet view) {
    plan_.memory.push_back(
        {PlannedMemoryEvent::Kind::kRelease, view.mask(), view_bytes(view)});
    plan_.final_views.push_back(view.mask());
  }

  const ScheduleSpec& spec_;
  const ProcGrid& grid_;
  const AggregationTree& tree_;
  int rank_;
  BlockRange block_;
  RankPlan plan_;
  std::map<std::uint32_t, std::int64_t>* elements_by_view_ = nullptr;
  std::map<std::uint32_t, ReduceAlgorithm>* algorithm_by_view_ = nullptr;
};

}  // namespace

std::int64_t CommPlan::total_elements() const {
  std::int64_t total = 0;
  for (const auto& [view, elements] : elements_by_view) total += elements;
  return total;
}

std::int64_t CommPlan::total_messages() const {
  std::int64_t messages = 0;
  for (const RankPlan& rank : ranks) {
    for (const PlannedOp& op : rank.ops) {
      if (op.kind == PlannedOp::Kind::kSend) ++messages;
    }
  }
  return messages;
}

ScheduleIR CommPlan::ir() const {
  ScheduleIR out;
  out.num_ranks = num_ranks;
  out.ranks.reserve(ranks.size());
  for (const RankPlan& rank : ranks) {
    RankProgram program;
    program.events = rank.ops;
    out.ranks.push_back(std::move(program));
  }
  return out;
}

CommPlan build_comm_plan(const ScheduleSpec& spec) {
  CUBIST_CHECK(!spec.sizes.empty() &&
                   spec.sizes.size() == spec.log_splits.size(),
               "sizes/log_splits rank mismatch");
  CUBIST_CHECK(spec.reduce_message_elements >= 0,
               "negative reduction message cap");
  CUBIST_CHECK(spec.bytes_per_cell > 0, "bytes_per_cell must be positive");
  const ProcGrid grid(spec.log_splits, spec.model.topology);
  const AggregationTree tree(grid.ndims());
  CommPlan plan;
  plan.num_ranks = grid.size();
  plan.ranks.reserve(static_cast<std::size_t>(grid.size()));
  for (int rank = 0; rank < grid.size(); ++rank) {
    RankPlanner planner(spec, grid, tree, rank);
    plan.ranks.push_back(
        planner.run(plan.elements_by_view, plan.algorithm_by_view));
  }
  return plan;
}

}  // namespace cubist
