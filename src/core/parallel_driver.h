// End-to-end parallel construction driver.
//
// Wraps the SPMD rank program (Figure 5) in a Runtime run: generates or
// receives each rank's input block through a caller-supplied provider,
// builds the cube, and optionally gathers the distributed view blocks onto
// rank 0 to assemble a queryable CubeResult. The gather is the rank
// program's write-back, so the one plan the driver verifies before the run
// (and audits the run against afterwards) covers it too.
//
// Accounting separates the construction phase from result collection:
// construction reductions are tagged with view masks (< 2^32); gather
// traffic uses tags >= kGatherTagBase, so the reported construction volume
// matches the paper's communication-volume quantity (the paper's algorithm
// leaves views distributed on the lead processors), and the gather's
// charges stay off each rank's construction clock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "analysis/comm_plan.h"
#include "array/block.h"
#include "array/sparse_array.h"
#include "core/cube_result.h"
#include "core/parallel_builder.h"
#include "minimpi/runtime.h"

namespace cubist {

/// Produces rank `rank`'s input block (in local coordinates, extents equal
/// to `block.extents()`). Called concurrently from all ranks; must be
/// thread-safe and deterministic. The block may share its immutable chunks
/// with the provider's own data (extract_block does), so the rank reads
/// them in place; it never writes them.
using BlockProvider =
    std::function<SparseArray(int rank, const BlockRange& block)>;

/// Everything measured in one parallel construction run.
struct ParallelCubeReport {
  /// Simulated parallel construction time: max over ranks of the virtual
  /// clock at construction completion (excludes input generation and
  /// result gathering; RunReport::makespan_seconds includes rank 0's
  /// gather receives).
  double construction_seconds = 0.0;
  /// Measured construction communication volume in LOGICAL
  /// (dense-equivalent) bytes — the paper's quantity (sum over view tags;
  /// excludes gather traffic).
  std::int64_t construction_bytes = 0;
  /// Bytes construction actually put on the link after wire encoding
  /// (<= construction_bytes; == with the reduce codec off).
  std::int64_t construction_wire_bytes = 0;
  /// Measured construction logical bytes per view mask.
  std::map<std::uint32_t, std::int64_t> bytes_by_view;
  /// Measured construction wire bytes per view mask.
  std::map<std::uint32_t, std::int64_t> wire_bytes_by_view;
  /// Messages + bytes including gather, and real wall time.
  RunReport run;
  /// Max over ranks of the per-rank live-block high-water (Theorem 4).
  std::int64_t max_peak_live_bytes = 0;
  /// Per-rank construction stats.
  std::vector<ParallelBuildStats> rank_stats;
  /// Total non-zeros across all rank blocks (the distributed input size).
  std::int64_t total_nnz = 0;
  /// Resolved reduction schedule per axis group of each view (the tuner's
  /// pick under kAuto), from the static plan. Filled only when the plan
  /// was built, i.e. when ParallelOptions::audit was on.
  std::map<ReduceGroup, ReduceAlgorithm> reduce_algorithm_by_group;
  /// Assembled cube (only when collect_result was true).
  std::optional<CubeResult> cube;
};

/// The static schedule inputs of a run_parallel_cube call: the spec its
/// plan is built from, verified and audited against. It holds the call's
/// ReduceOptions and cost model, every input the collective tuner reads,
/// so the plan resolves kAuto to exactly the schedule the ranks execute.
ScheduleSpec schedule_spec_of(const std::vector<std::int64_t>& sizes,
                              const std::vector<int>& log_splits,
                              const CostModel& model, bool collect_result,
                              const ParallelOptions& options);

/// Runs Figure 5 on 2^(sum log_splits) thread-ranks.
ParallelCubeReport run_parallel_cube(
    const std::vector<std::int64_t>& sizes, const std::vector<int>& log_splits,
    const CostModel& model, const BlockProvider& provider,
    bool collect_result, const ParallelOptions& options = {});

}  // namespace cubist
