// Parallel data cube construction over the aggregation tree (Figure 5):
// the shared walk of core/tree_walk.h with a reducing finalize-child hook.
//
// SPMD over a ProcGrid: every rank owns a block of the input and locally
// aggregates ALL children of the current node in one scan; each child's
// partial blocks are then reduced under the operator along the aggregated
// dimension onto the lead processors (grid coordinate 0 along that
// dimension), which alone carry the child's subtree further. The first
// level — the dominant part of the computation — is thus fully parallel,
// while deeper levels run on the shrinking lead sets, exactly as the paper
// describes. Each lead writes a view back the moment it completes: it
// finalizes the block and, when the result is collected, ships it to
// rank 0 (or, on rank 0, places it into the assembled cube) and frees it,
// so no rank holds a finished view past its write-back.
//
// Every reduction is tagged with the target view's mask, so the run's
// volume report yields measured communication volume per view — directly
// comparable with Lemma 1 / Theorem 3. The write-back ships under
// kGatherTagBase | mask (analysis/comm_plan.h), outside that tag space.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "array/sparse_array.h"
#include "core/cube_result.h"
#include "core/sequential_builder.h"
#include "minimpi/comm.h"
#include "minimpi/proc_grid.h"

namespace cubist {

/// Default of ParallelOptions::audit: on in debug builds, off in release
/// builds (tests can always opt in explicitly).
#ifdef NDEBUG
inline constexpr bool kScheduleAnalysisDefault = false;
#else
inline constexpr bool kScheduleAnalysisDefault = true;
#endif

/// Tunables of the parallel construction (extensions; the paper's
/// configuration is the default).
struct ParallelOptions {
  /// Aggregate operator (the paper fixes SUM).
  AggregateOp op = AggregateOp::kSum;
  /// Settings of every reduction (minimpi/collectives.h): algorithm,
  /// message cap and wire codec. The algorithm defaults to kAuto here: the
  /// cost tuner picks binomial or ring per (block size, group, message
  /// cap, wire switch), pricing every payload dense, and only leaves
  /// binomial on a clear predicted win, so small latency-bound
  /// reductions keep the paper's schedule. Forced values
  /// pin one algorithm for every reduction (benches and the determinism
  /// matrix).
  ReduceOptions reduce{.algorithm = ReduceAlgorithm::kAuto};
  /// Pool for the intra-rank scans and the receiver-side reduction
  /// combine (nullptr = ThreadPool::global()). A pure performance knob;
  /// tests inject fixed-size pools to pin the determinism contract. Each
  /// rank's share is the pool's size() / active_ranks() budget, which
  /// the runtime sets to size() / p.
  ThreadPool* pool = nullptr;
  /// Certify and audit the run (src/analysis). Before any rank launches,
  /// the pre-flight gate statically certifies the whole program, the
  /// result gather included — matched sends/recvs, deadlock freedom under
  /// every arrival order, Lemma 1 / Theorem 3 volumes, Theorem 4 memory
  /// bound. After the run, its event trace must equal the certified plan
  /// event for event, and no send may put more bytes on the wire than its
  /// logical size (exactly that size with the codec off). Any violation
  /// throws InternalError from run_parallel_cube. Every run records its
  /// trace, so this switch gates only building and certifying the plan
  /// and comparing the trace with it: a plan build and a verifier replay
  /// per run, hence off in release builds.
  bool audit = kScheduleAnalysisDefault;
};

/// Per-rank accounting of one parallel construction: the walk's
/// BuildStats for this rank's blocks plus its virtual clock.
struct ParallelBuildStats : BuildStats {
  /// Virtual clock when this rank finished construction. The result
  /// gather never moves it: the write-back's sends are charged off it, and
  /// rank 0 receives only after reading it.
  double build_clock_seconds = 0.0;
};

/// Runs Figure 5 on this rank. `local_root` is the rank's block of the
/// input (in local coordinates); its extents must match
/// grid.block(rank, global_sizes). Each view this rank leads is finalized
/// and freed at its write-back. With `collect_result`, every lead other
/// than rank 0 ships the block to rank 0 there, and rank 0 places its own
/// blocks into the cube, receives the other leads' blocks after its walk
/// and returns the assembled cube; every other call returns nullopt. Must
/// be called by all ranks.
std::optional<CubeResult> build_cube_parallel_rank(
    Comm& comm, const ProcGrid& grid,
    const std::vector<std::int64_t>& global_sizes,
    const SparseArray& local_root, bool collect_result,
    ParallelBuildStats* stats = nullptr, const ParallelOptions& options = {});

}  // namespace cubist
