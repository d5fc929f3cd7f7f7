#include "analysis/comm_plan.h"

#include <algorithm>

#include "array/aggregate.h"
#include "common/error.h"
#include "lattice/aggregation_tree.h"
#include "minimpi/proc_grid.h"

namespace cubist {
namespace {

constexpr auto kValueBytes = static_cast<std::int64_t>(sizeof(Value));

/// Cells of `block` restricted to the retained dimensions of `view` (a
/// rank's block of a view: each aggregation removes one dimension).
std::int64_t block_cells(const BlockRange& block, DimSet view) {
  std::int64_t cells = 1;
  for (int d : view.dims()) cells *= block.extent(d);
  return cells;
}

/// One rank's Figure-5 program as planned events: a visitor of
/// walk_tree, the walk the builders' TreeWalk runs, so the
/// plan's event order is the run's by construction. Where the per-rank
/// hooks of core/parallel_builder.cpp touch data, this emits planned
/// allocations, reduce operations, releases and write-backs, and, when
/// the result is collected, the gather's sends and rank 0's receives.
class RankPlanner {
 public:
  RankPlanner(const ScheduleSpec& spec, const ProcGrid& grid,
              const AggregationTree& tree, int rank)
      : spec_(spec),
        grid_(grid),
        tree_(tree),
        rank_(rank),
        block_(grid.block(rank, spec.sizes)) {}

  /// Plans the rank's walk: its communication program into `events`,
  /// the rest into the returned RankPlan.
  RankPlan run(std::map<ReduceGroup, ReduceAlgorithm>& algorithm_by_group,
               std::vector<TraceEvent>& events) {
    algorithm_by_group_ = &algorithm_by_group;
    events_ = &events;
    walk_tree(tree_, tree_.root(), *this);
    if (spec_.collect_result && rank_ == 0) plan_gather_receives();
    return std::move(plan_);
  }

  /// The scan of `view`: every child block is allocated, and the scan's
  /// transient scratch ceiling is charged (the cap on the kernels' offset
  /// tables; see docs/PERFORMANCE.md). The bound only depends on the
  /// parent block's shape, so the plan stays valid for every chunk
  /// layout, density, and thread count.
  void scan(DimSet view, const std::vector<DimSet>& children) {
    const std::vector<int> view_dims = view.dims();
    std::vector<DimSet> dropped;
    for (DimSet child : children) {
      dropped.push_back(view.positions_of(view.minus(child)));
      plan_.memory.push_back({PlannedMemoryEvent::Kind::kAlloc, child.mask(),
                              view_bytes(child)});
    }
    std::vector<std::int64_t> parent_extents;
    parent_extents.reserve(view_dims.size());
    for (int d : view_dims) parent_extents.push_back(block_.extent(d));
    plan_.max_scan_scratch_bytes =
        std::max(plan_.max_scan_scratch_bytes,
                 scan_scratch_bound(Shape{parent_extents}, dropped));
  }

  /// Reduces `child` over the axis group of its aggregated dimension; only
  /// the lead ranks keep it.
  bool finalize(DimSet view, DimSet child) {
    const int aggregated = view.minus(child).min_dim();
    const std::vector<int> group = grid_.axis_group(rank_, aggregated);
    if (group.size() > 1) {
      plan_reduce(group, child);
    }
    return grid_.is_lead(rank_, aggregated);
  }

  /// Frees `view`'s block; a kept view is one of this rank's results,
  /// written back at once: a collecting lead other than rank 0 sends it
  /// to rank 0 (rank 0 places its own blocks locally).
  void retire(DimSet view, bool keep) {
    plan_.memory.push_back(
        {PlannedMemoryEvent::Kind::kRelease, view.mask(), view_bytes(view)});
    if (!keep) return;
    plan_.final_views.push_back(view.mask());
    if (spec_.collect_result && rank_ != 0) {
      events_->push_back({TraceEventKind::kSend, 0,
                          kGatherTagBase | view.mask(), view_bytes(view)});
    }
  }

 private:
  /// Rank 0's receives of the other leads' blocks, after its walk: view
  /// by view in ascending mask, source by source in ascending rank.
  void plan_gather_receives() {
    const int n = grid_.ndims();
    for (std::uint32_t mask = 0; mask < DimSet::full(n).mask(); ++mask) {
      const DimSet view = DimSet::from_mask(mask);
      for (int src = 1; src < grid_.size(); ++src) {
        if (!grid_.is_lead_for(src, view.complement(n))) continue;
        events_->push_back(
            {TraceEventKind::kRecv, src, kGatherTagBase | mask,
             block_cells(grid_.block(src, spec_.sizes), view) * kValueBytes});
      }
    }
  }

  std::int64_t view_bytes(DimSet view) const {
    return block_cells(block_, view) * kValueBytes;
  }

  /// The chunk-pipelined reduction of Comm::reduce, as planned events:
  /// the SAME reduce_program the runtime executes
  /// (minimpi/collectives.h), resolved on the same static inputs and
  /// appended as it is — so whatever the tuner picks is exactly what gets
  /// verified. Zero-size blocks plan nothing (the runtime skips the wire
  /// entirely). Planned message sizes are LOGICAL (dense) bytes; the
  /// adaptive wire codec only ever shrinks them, which is what the wire
  /// audit certifies.
  void plan_reduce(const std::vector<int>& group, DimSet child) {
    const auto me = std::find(group.begin(), group.end(), rank_);
    CUBIST_ASSERT(me != group.end(), "rank not in its own axis group");
    const std::int64_t total = block_cells(block_, child);
    if (total == 0) return;
    ReduceOptions resolved = spec_.reduce;
    resolved.algorithm =
        resolve_reduce_algorithm(spec_.reduce, group, total, spec_.model);
    // Every member of the group resolves the same pick on the same
    // static inputs; the first member to plan it records it.
    const auto [recorded, fresh] = algorithm_by_group_->try_emplace(
        {child.mask(), group}, resolved.algorithm);
    CUBIST_ASSERT(fresh || recorded->second == resolved.algorithm,
                  "axis group of view " << child.mask()
                                        << " resolved two algorithms");
    const std::vector<TraceEvent> program =
        reduce_program(resolved, group, static_cast<int>(me - group.begin()),
                       total, child.mask());
    events_->insert(events_->end(), program.begin(), program.end());
  }

  const ScheduleSpec& spec_;
  const ProcGrid& grid_;
  const AggregationTree& tree_;
  int rank_;
  BlockRange block_;
  RankPlan plan_;
  std::vector<TraceEvent>* events_ = nullptr;
  std::map<ReduceGroup, ReduceAlgorithm>* algorithm_by_group_ = nullptr;
};

}  // namespace

std::int64_t CommPlan::total_messages() const {
  return volume_of(events).total_messages;
}

std::map<std::uint32_t, std::int64_t> elements_by_view(const CommPlan& plan) {
  std::map<std::uint32_t, std::int64_t> elements;
  for (const auto& [tag, bytes] : volume_of(plan.events).bytes_by_tag) {
    if (tag < kGatherTagBase) elements[view_of_tag(tag)] = bytes / kValueBytes;
  }
  return elements;
}

CommPlan build_comm_plan(const ScheduleSpec& spec) {
  CUBIST_CHECK(!spec.sizes.empty() &&
                   spec.sizes.size() == spec.log_splits.size(),
               "sizes/log_splits rank mismatch");
  CUBIST_CHECK(spec.reduce.max_message_elements >= 0,
               "negative reduction message cap");
  const ProcGrid grid(spec.log_splits);
  const AggregationTree tree(grid.ndims());
  CommPlan plan;
  plan.num_ranks = grid.size();
  plan.ranks.reserve(static_cast<std::size_t>(grid.size()));
  plan.events.ranks.resize(static_cast<std::size_t>(grid.size()));
  for (int rank = 0; rank < grid.size(); ++rank) {
    RankPlanner planner(spec, grid, tree, rank);
    plan.ranks.push_back(planner.run(
        plan.algorithm_by_group,
        plan.events.ranks[static_cast<std::size_t>(rank)]));
  }
  return plan;
}

}  // namespace cubist
