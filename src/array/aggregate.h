// Simultaneous multi-way aggregation kernels.
//
// The central operation of cube construction with maximal cache and memory
// reuse: ONE scan of a parent array updates ALL of its children at once
// (paper §1 "Cache and Memory Reuse"). A child is the parent with exactly
// one dimension aggregated away under the scan's operator (aggregate_op.h;
// SUM by default). Every operator runs the same kernels.
//
// Kernels are expressed in *position space*: a target names the position of
// the aggregated dimension within the parent's dimension list. The lattice
// layer maps DimSets to positions.
//
// Large scans run on the shared ThreadPool as deterministic stripes (see
// docs/PERFORMANCE.md): the parent is cut into cache-sized stripes whose
// geometry depends only on the array shape — never on the thread count —
// children that alias across stripes get identity-filled stripe-private
// accumulators that are merged under the operator in fixed stripe order,
// so the result is bit-identical for any CUBIST_THREADS setting.
#pragma once

#include <cstdint>
#include <span>

#include "array/aggregate_op.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"

namespace cubist {

class ThreadPool;

/// One child to produce during a parent scan.
struct AggregationTarget {
  /// Position (0-based, within the parent's dimension list) of the
  /// dimension aggregated away.
  int aggregated_pos;
  /// Output array; its shape must equal parent.shape().without_dim(pos).
  /// The scan combines into its cells under the operator (SUM: +=), so
  /// callers can aggregate several parents into one child if they wish;
  /// the cube builders start every child at the operator's identity.
  DenseArray* child;
};

/// Work accounting returned by the kernels; feeds the virtual-time model.
struct AggregationStats {
  /// Cells of the parent visited (dense: shape.size(); sparse: nnz).
  std::int64_t cells_scanned = 0;
  /// Individual child-cell combines performed (= cells * #targets).
  std::int64_t updates = 0;
  /// Transient stripe-private accumulator bytes this scan allocated
  /// (0 for single-stripe scans). A high-water mark, not a sum: merging
  /// stats keeps the max, because the scratch of one scan is released
  /// before the next scan starts.
  std::int64_t scratch_bytes = 0;

  AggregationStats& operator+=(const AggregationStats& o) {
    cells_scanned += o.cells_scanned;
    updates += o.updates;
    scratch_bytes = scratch_bytes > o.scratch_bytes ? scratch_bytes
                                                    : o.scratch_bytes;
    return *this;
  }
};

/// Execution knobs of one scan (defaults reproduce the global policy).
struct AggregateOptions {
  /// Pool to stripe the scan over; nullptr = ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Extra cap on the scan's concurrency on top of the pool's own
  /// size() / active_ranks() budget (0 = no extra cap). The parallel
  /// builder sets this to its per-rank worker budget.
  int max_workers = 0;
};

// --- deterministic stripe policy (shared by the kernels, the static
// --- memory analysis, and the tests; see docs/PERFORMANCE.md) ---

/// Most stripes a scan is ever cut into (the parallelism ceiling).
inline constexpr std::int64_t kMaxScanStripes = 16;
/// Scans smaller than one stripe of this many cells stay single-stripe.
inline constexpr std::int64_t kMinCellsPerStripe = 1 << 13;
/// Hard cap on the transient private-accumulator bytes of one scan. A
/// scan's scratch is further capped at the bytes of its own children, so
/// it never outgrows the output it feeds; the stripe count shrinks
/// (ultimately to 1 = scalar) to respect min(this, those bytes).
inline constexpr std::int64_t kScanScratchBudgetBytes =
    std::int64_t{64} << 20;

/// Deterministic decomposition of one scan: a function of shapes (and for
/// sparse scans the nonzero count) only — never of the thread count.
struct StripePlan {
  /// Number of stripes; 1 = scalar single-thread scan, no scratch.
  std::int64_t num_stripes = 1;
  /// Units per stripe (dense: parent rows; sparse: chunk-grid chunks).
  std::int64_t stripe_len = 0;
  /// Per target: does its child alias across stripes (and therefore need
  /// stripe-private accumulators)? Parallel stripes write direct,
  /// non-aliased targets concurrently into disjoint child regions.
  std::vector<std::uint8_t> aliased;
  /// num_stripes * sum of aliased child bytes (0 when num_stripes == 1);
  /// never more than scan_scratch_bound of the scan.
  std::int64_t scratch_bytes = 0;
};

/// Stripe plan for a dense scan of `parent` over the given aggregated
/// positions. Units are parent rows (the fastest-varying dimension stays
/// whole so the inner loops remain contiguous).
StripePlan plan_dense_scan(const Shape& parent,
                           std::span<const int> aggregated_positions);

/// Stripe plan for a sparse chunk-offset scan; units are chunks of
/// `chunk_grid`. `work_cells` sizes the stripes (the kernel passes nnz;
/// pass parent.size() for a data-independent worst case).
StripePlan plan_sparse_scan(const Shape& parent, const Shape& chunk_grid,
                            std::span<const int> aggregated_positions,
                            std::int64_t work_cells);

/// Upper bound on the transient private-accumulator bytes ANY scan of
/// `parent` over these positions may allocate, independent of chunk
/// layout, nonzero count, operator and thread count:
/// min(kScanScratchBudgetBytes, sum of child bytes) — the cap the stripe
/// planners enforce.
/// The static schedule analysis charges this per planned scan
/// (`bytes_per_cell` mirrors ScheduleSpec's knob; the kernels use
/// sizeof(Value)).
std::int64_t scan_scratch_bound(
    const Shape& parent, std::span<const int> aggregated_positions,
    std::int64_t bytes_per_cell = static_cast<std::int64_t>(sizeof(Value)));

/// Scans a dense parent once, combining every target simultaneously under
/// `op`. `input_level` selects the parent's cell semantics: true means raw
/// input (0 marks an empty cell; COUNT counts the others), false means an
/// aggregate view whose empty cells hold the operator's identity. Striped
/// over the pool per plan_dense_scan; bit-identical results for any pool
/// size.
AggregationStats aggregate_children(const DenseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options = {},
                                    AggregateOp op = AggregateOp::kSum,
                                    bool input_level = true);

/// Scans a chunk-offset sparse parent (raw input) once, combining every
/// target under `op`. A per-chunk-shape offset table, one int64 per
/// (target, cell of a full chunk), makes interior chunks cost one lookup
/// and one combine per (non-zero, target). It is built when the parent
/// holds at least as many non-zeros as a full chunk has cells and the
/// table's bytes fit scan_scratch_bound (at most the bytes of the
/// children); otherwise every chunk decodes its offsets, with the same
/// result. Striped over whole chunks per plan_sparse_scan; bit-identical
/// results for any pool size.
AggregationStats aggregate_children(const SparseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options = {},
                                    AggregateOp op = AggregateOp::kSum);

/// Generic projection: aggregates away every parent dimension NOT listed
/// in `kept_positions` (ascending positions into the parent's dimension
/// list) in a single scan. `out` must have the kept extents and is
/// accumulated into. Deliberately an independent, scalar code path from
/// the multi-way kernels. Its callers are the reference verifier, the
/// naive all-from-root baseline and PartialCube's on-the-fly
/// projections; no builder calls it (tools/lint.py rule 9).
AggregationStats project(const DenseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out);
AggregationStats project(const SparseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out);

}  // namespace cubist
