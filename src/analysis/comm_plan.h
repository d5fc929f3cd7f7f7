// Static communication plan for the Figure-5 parallel schedule.
//
// `build_comm_plan` symbolically executes the per-rank SPMD program of
// `build_cube_parallel_rank` without touching any data: it visits
// AggregationTree::walk, the walk the builders run, and plans each
// child's reduction onto the lead processors with reduce_program, the
// tuned reduction program Comm::reduce executes. When the result is
// collected it also plans the gather: each lead other than rank 0 sends a
// view block to rank 0 the moment it writes the view back, and rank 0,
// after its walk, receives the other leads' blocks view by view
// (ascending mask), source by source (ascending rank). The result is, per
// rank, the exact ordered list of planned sends/receives/combines (peer,
// view, chunk offset, payload elements, wire tag), the exact ordered list
// of view-block allocations/releases and the views it writes back. The
// schedule verifier checks this plan against the paper's closed forms
// (Lemma 1, Theorems 3 and 4) and proves the whole program deadlock-free;
// the post-run audit checks the run's recorded event trace against it.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "analysis/schedule_ir.h"
#include "array/shape.h"
#include "common/dimset.h"
#include "minimpi/collectives.h"
#include "minimpi/cost_model.h"

namespace cubist {

/// Tag space of the result gather: a lead ships its block of view `mask`
/// under kGatherTagBase | mask. View masks stay below 2^32, so the
/// construction tags (the view masks themselves) never collide with it,
/// and the Lemma-1/Theorem-3 volumes count the tags below it only.
inline constexpr std::uint64_t kGatherTagBase = std::uint64_t{1} << 32;

/// The inputs that determine a parallel construction schedule: the global
/// extents, the processor grid exponents (dimension d split 2^{k_d} ways)
/// and the message-size cap of the reductions. Mirrors the arguments of
/// `run_parallel_cube` / `ParallelOptions`.
struct ScheduleSpec {
  std::vector<std::int64_t> sizes;
  std::vector<int> log_splits;
  /// Whether the views are gathered onto rank 0 (run_parallel_cube's
  /// `collect_result`). Off, the views stay distributed on their leads,
  /// as in the paper, and the plan holds construction traffic only.
  bool collect_result = false;
  /// Cap on elements per reduction message (0 = whole block per message),
  /// as in ParallelOptions::reduce_message_elements. Changes message
  /// counts, never volumes.
  std::int64_t reduce_message_elements = 0;
  /// Reduction schedule, as in ReduceOptions::algorithm. kAuto resolves
  /// through the same tuner on the same static inputs as the runtime, so
  /// the plan IS the tuned schedule the ranks will execute — whatever the
  /// tuner picks is what gets verified.
  ReduceAlgorithm reduce_algorithm = ReduceAlgorithm::kBinomial;
  /// Tuner inputs mirrored from ReduceOptions / ParallelOptions: the
  /// wire-codec switch, and the cost model whose topology maps ranks onto
  /// nodes.
  bool encode_wire = true;
  CostModel model;
};

/// One planned operation of a rank, in program order. Planned ops ARE
/// schedule-IR events (analysis/schedule_ir.h): typed send / recv /
/// combine with view, chunk offset and wire tag — the alias keeps the
/// historical name used throughout the verifier and its tests. A gather
/// send or receive carries tag kGatherTagBase | view and has no combine.
using PlannedOp = CommEvent;

/// One planned view-block lifetime transition of a rank, in program order.
struct PlannedMemoryEvent {
  enum class Kind { kAlloc, kRelease };
  Kind kind = Kind::kAlloc;
  std::uint32_t view = 0;
  std::int64_t bytes = 0;

  bool operator==(const PlannedMemoryEvent&) const = default;
};

/// Everything one rank plans to do, in program order.
struct RankPlan {
  std::vector<PlannedOp> ops;
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
  /// Planned reduction volume per view (sum of send payloads under the
  /// view's construction tag; the gather is not counted) — the static
  /// counterpart of the run's per-tag volume (RunReport::volume). A
  /// derived summary: verify_schedule recomputes volumes from
  /// `ranks[].ops`, so mutating the ops does not require keeping this map
  /// in sync.
  std::map<std::uint32_t, std::int64_t> elements_by_view;
  /// Resolved reduction schedule per axis group (the tuner's pick under
  /// kAuto, the forced algorithm otherwise) — the attribution record the
  /// bench reports surface. The groups of one view may pick differently:
  /// their blocks, and on a two-tier topology their node spans, differ.
  /// Informational summary like elements_by_view.
  std::map<ReduceGroup, ReduceAlgorithm> algorithm_by_group;

  /// Planned construction volume (the sum of elements_by_view).
  std::int64_t total_elements() const;
  /// Planned sends, gather included.
  std::int64_t total_messages() const;
};

/// Builds the exact plan the parallel builder will execute for `spec`.
CommPlan build_comm_plan(const ScheduleSpec& spec);

}  // namespace cubist
