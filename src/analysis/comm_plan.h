// Static communication plan for the Figure-5 parallel schedule.
//
// `build_comm_plan` symbolically executes the per-rank SPMD program of
// `build_cube_parallel_rank` without touching any data: it visits
// walk_tree, the walk the builders run, and appends each
// child's reduction onto the lead processors as reduce_program writes it,
// the tuned reduction program Comm::reduce executes. When the result is
// collected it also plans the gather: each lead other than rank 0 sends a
// view block to rank 0 the moment it writes the view back, and rank 0,
// after its walk, receives the other leads' blocks view by view
// (ascending mask), source by source (ascending rank). The result is, per
// rank, the exact ordered list of the events its run records — sends,
// receives and combines as minimpi TraceEvents (peer, tag, logical size,
// chunk offset), which `replay` links as the run does — the exact
// ordered list of view-block allocations/releases and the views it
// writes back. The schedule verifier checks this plan against the
// paper's closed forms (Lemma 1, Theorems 3 and 4) and proves the whole
// program deadlock-free; the post-run audit compares the run's recorded
// event trace with it field for field.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "array/shape.h"
#include "common/dimset.h"
#include "minimpi/collectives.h"
#include "minimpi/cost_model.h"
#include "minimpi/event_trace.h"

namespace cubist {

/// Tag space of the result gather: a lead ships its block of view `mask`
/// under kGatherTagBase | mask. View masks stay below 2^32, so the
/// construction tags (the view masks themselves) never collide with it,
/// and the Lemma-1/Theorem-3 volumes count the tags below it only.
inline constexpr std::uint64_t kGatherTagBase = std::uint64_t{1} << 32;

/// The view a construction or gather tag names.
inline std::uint32_t view_of_tag(std::uint64_t tag) {
  return static_cast<std::uint32_t>(tag & (kGatherTagBase - 1));
}

/// The inputs that determine a parallel construction schedule: the
/// arguments of `run_parallel_cube` and the reduce settings of its
/// `ParallelOptions` (schedule_spec_of builds it from them).
struct ScheduleSpec {
  /// Global extents.
  std::vector<std::int64_t> sizes;
  /// Processor grid exponents: dimension d is split 2^{k_d} ways.
  std::vector<int> log_splits;
  /// Whether the views are gathered onto rank 0 (run_parallel_cube's
  /// `collect_result`). Off, the views stay distributed on their leads,
  /// as in the paper, and the plan holds construction traffic only.
  bool collect_result = false;
  /// The reductions' settings, as in ParallelOptions::reduce. The message
  /// cap changes message counts, never volumes. kAuto resolves through
  /// the same tuner on the same static inputs as the runtime, so the plan
  /// IS the tuned schedule the ranks will execute — whatever the tuner
  /// picks is what gets verified.
  ReduceOptions reduce;
  /// The cost model the tuner prices on.
  CostModel model;
};

/// One planned view-block lifetime transition of a rank, in program order.
struct PlannedMemoryEvent {
  enum class Kind { kAlloc, kRelease };
  Kind kind = Kind::kAlloc;
  std::uint32_t view = 0;
  std::int64_t bytes = 0;

  bool operator==(const PlannedMemoryEvent&) const = default;
};

/// Everything one rank plans to do beside communicating, in program
/// order (its communication is CommPlan::events).
struct RankPlan {
  std::vector<PlannedMemoryEvent> memory;
  /// Views this rank writes back as final results (it is their lead).
  std::vector<std::uint32_t> final_views;
  /// Largest transient footprint (offset tables) any single scan of this
  /// rank may allocate (scan_scratch_bound of its biggest planned scan).
  /// Scratch lives only during a scan — it is charged as a separate
  /// transient term next to the Theorem-4 view-block bound, not added
  /// into the planned memory events.
  std::int64_t max_scan_scratch_bytes = 0;
};

/// One reduction's axis group: the view it reduces (mask) and the
/// group's ranks, lead first (ProcGrid::axis_group).
using ReduceGroup = std::pair<std::uint32_t, std::vector<int>>;

/// The full static plan over the processor grid.
struct CommPlan {
  int num_ranks = 0;
  std::vector<RankPlan> ranks;
  /// Each rank's communication program: the events its run records, in
  /// order, with `units` in logical bytes for sends and receives and in
  /// elements for combines. A reduction receive is followed by the
  /// combine that folds it; a gather send or receive carries tag
  /// kGatherTagBase | view and has no combine. The events carry no links
  /// and no wire bytes: `replay` links a copy as the run will (the
  /// verifier and the audit do), and only the run knows the wire bytes.
  EventTrace events;
  /// Resolved reduction schedule per axis group (the tuner's pick under
  /// kAuto, the forced algorithm otherwise) — the attribution record the
  /// bench reports surface. The groups of one view may pick differently,
  /// since their blocks differ.
  /// An informational summary: the verifier does not read it.
  std::map<ReduceGroup, ReduceAlgorithm> algorithm_by_group;

  /// Planned sends, gather included: volume_of(events)'s message count.
  std::int64_t total_messages() const;
};

/// Builds the exact plan the parallel builder will execute for `spec`.
CommPlan build_comm_plan(const ScheduleSpec& spec);

/// Planned construction volume per view, in elements: volume_of the
/// plan's events under each construction tag (below kGatherTagBase; the
/// gather is not counted) — the static counterpart of the run's per-tag
/// volume (RunReport::volume), which the verifier checks against Lemma 1.
std::map<std::uint32_t, std::int64_t> elements_by_view(const CommPlan& plan);

}  // namespace cubist
