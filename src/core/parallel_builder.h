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
// describes.
//
// Every reduction is tagged with the target view's mask, so the runtime
// ledger yields measured communication volume per view — directly
// comparable with Lemma 1 / Theorem 3.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "core/sequential_builder.h"
#include "minimpi/comm.h"
#include "minimpi/proc_grid.h"

namespace cubist {

/// Default for the driver's static schedule checks: on in debug builds,
/// off in release builds (tests can always opt in explicitly).
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
  /// Reduction schedule per collective (minimpi/collectives.h). The
  /// default kAuto lets the cost tuner pick binomial / ring / two-level
  /// per (block size, group, density hint, topology); the tuner only
  /// leaves binomial on a clear predicted win, so small latency-bound
  /// reductions keep the paper's schedule. Forced values pin one
  /// algorithm for every reduction (benches and the determinism matrix).
  ReduceAlgorithm reduce_algorithm = ReduceAlgorithm::kAuto;
  /// Static density hint for the kAuto tuner (non-identity fraction of
  /// reduction payloads). Never measured at runtime — the static planner
  /// must resolve kAuto to the identical schedule.
  double reduce_density_hint = 1.0;
  /// Cap on elements per reduction message (0 = whole block per message).
  /// The communication-frequency knob: *logical* volume is unchanged,
  /// message count and latency cost grow as the cap shrinks, and the
  /// chunk-pipelined reduce overlaps rounds at this granularity.
  std::int64_t reduce_message_elements = 0;
  /// Adaptive wire encoding of reduction payloads (docs/PERFORMANCE.md,
  /// "Communication engine"). Off, every message ships raw dense chunks
  /// and measured wire bytes equal logical bytes exactly. Either way the
  /// output bits are identical — the codec is lossless.
  bool encode_wire = true;
  /// Non-identity fraction at or below which run encodings compete
  /// (WirePolicy::density_threshold).
  double wire_density_threshold = 0.5;
  /// Pool for the intra-rank scans and the receiver-side reduction
  /// combine (nullptr = ThreadPool::global()). A pure performance knob;
  /// tests inject fixed-size pools to pin the determinism contract.
  ThreadPool* pool = nullptr;
  /// Pre-flight gate (src/analysis): before any rank launches, statically
  /// certify the schedule — matched sends/recvs, deadlock freedom, Lemma
  /// 1 / Theorem 3 volumes, Theorem 4 memory bound. Violations throw
  /// InternalError from run_parallel_cube.
  bool verify_schedule = kScheduleAnalysisDefault;
  /// Post-run auditor: diff the measured per-view ledger bytes against
  /// the static plan; any divergence throws InternalError.
  bool audit_volume = false;
  /// Pre-flight model check (analysis/interleaving_checker.h): exhaustively
  /// explore every arrival interleaving of the planned reduction schedule
  /// and prove deadlock freedom and combine determinism under all of them.
  /// Exhaustive exploration only scales to small configs, so the gate is
  /// skipped silently when the grid exceeds kModelCheckMaxRanks or the plan
  /// exceeds kModelCheckMaxEvents; within bounds, violations throw
  /// InternalError.
  bool model_check = kScheduleAnalysisDefault;
  /// Post-run happens-before auditor (analysis/hb_auditor.h): record every
  /// send/receive/combine/barrier during the run, rebuild the
  /// happens-before graph offline and hard-fail (InternalError) on any
  /// structural damage or unordered conflicting combine pair. Off by
  /// default — recording keeps the full event trace in memory.
  bool audit_hb = false;
};

/// Per-rank accounting of one parallel construction.
struct ParallelBuildStats {
  /// High-water mark of live computed view blocks on this rank (bytes).
  std::int64_t peak_live_bytes = 0;
  /// Bytes of final view blocks written back on this rank.
  std::int64_t written_bytes = 0;
  std::int64_t cells_scanned = 0;
  std::int64_t updates = 0;
  /// High-water mark of this rank's transient stripe-private accumulator
  /// bytes across its scans (a max, not a sum — released per scan).
  std::int64_t peak_scratch_bytes = 0;
  /// Dense-equivalent bytes this rank sent during construction — the
  /// paper's communication-volume measure for this rank.
  std::int64_t logical_bytes_sent = 0;
  /// Bytes this rank actually put on the link after wire encoding
  /// (<= logical_bytes_sent; == with encode_wire off).
  std::int64_t wire_bytes_sent = 0;
  /// Virtual clock when this rank finished construction (before any
  /// result gathering).
  double build_clock_seconds = 0.0;
};

/// Runs Figure 5 on this rank. `local_root` is the rank's block of the
/// input (in local coordinates); its extents must match
/// grid.block(rank, global_sizes). Returns the final local blocks of every
/// view this rank leads, keyed by view mask. Must be called by all ranks.
std::map<std::uint32_t, DenseArray> build_cube_parallel_rank(
    Comm& comm, const ProcGrid& grid,
    const std::vector<std::int64_t>& global_sizes,
    const SparseArray& local_root, ParallelBuildStats* stats = nullptr,
    const ParallelOptions& options = {});

}  // namespace cubist
