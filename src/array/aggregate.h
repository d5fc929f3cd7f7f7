// Simultaneous multi-way aggregation kernels: the one scan of the library.
//
// The central operation of cube construction with maximal cache and memory
// reuse: ONE scan of a parent array updates ALL of its children at once
// (paper §1 "Cache and Memory Reuse"). A child is a region of the parent
// (`BlockRange::whole` for all of it) with a set of its
// dimensions aggregated away under the scan's operator (aggregate_op.h;
// SUM by default). A cube builder's child drops one dimension; a routed
// query's drops several, down to every one for a point. Every operator runs
// the same kernels.
//
// Kernels are expressed in *position space*: a target names the positions
// of the aggregated dimensions within the parent's dimension list. The
// lattice layer maps view DimSets to positions.
//
// Large scans run on the shared ThreadPool as deterministic stripes (see
// docs/PERFORMANCE.md): the targets that keep the slab dimension are
// striped in slabs of it, and the targets that drop it along a dimension
// they all keep, so no child cell takes contributions from two stripes.
// Every cell combines its contributions in input order, and the result is
// the bytes of a one-stripe scan for any CUBIST_THREADS setting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "array/aggregate_op.h"
#include "array/block.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "common/dimset.h"

namespace cubist {

class ThreadPool;

/// One child to produce during a parent scan.
struct AggregationTarget {
  /// Positions (0-based, within the parent's dimension list) of the
  /// dimensions aggregated away; the empty set copies the region.
  DimSet dropped;
  /// Output array; its shape must equal the scanned region's extents
  /// without the dropped positions. The scan combines into its cells under
  /// the operator (SUM: +=), so callers can aggregate several parents into
  /// one child if they wish; the cube builders start every child at the
  /// operator's identity.
  DenseArray* child;
};

/// Work accounting returned by the kernels; feeds the virtual-time model.
struct AggregationStats {
  /// Cells of the parent visited: a dense parent's cells in the region;
  /// a sparse parent's non-zeros in it, each counted once (nnz for the
  /// whole parent).
  std::int64_t cells_scanned = 0;
  /// Individual child-cell combines performed (= cells * #targets).
  std::int64_t updates = 0;
  /// Transient bytes this scan allocated beyond its children: the sparse
  /// scan's offset table (0 for dense scans and for sparse scans that
  /// decode every chunk). A high-water mark, not a sum: a walk keeps the
  /// max over its scans, because the table of one scan is released before
  /// the next scan starts.
  std::int64_t scratch_bytes = 0;
};

/// Execution knobs of one scan (defaults reproduce the global policy).
struct AggregateOptions {
  /// Pool to stripe the scan over; nullptr = ThreadPool::global(). Its
  /// size() / active_ranks() budget caps the scan's concurrency, so p
  /// simulated ranks each get an even share.
  ThreadPool* pool = nullptr;
};

// --- deterministic stripe policy (shared by the kernels, the static
// --- memory analysis, and the tests; see docs/PERFORMANCE.md) ---

/// Most stripes of each pass of a scan (the parallelism ceiling).
inline constexpr std::int64_t kMaxScanStripes = 16;
/// Scans smaller than one stripe of this many cells stay single-stripe.
inline constexpr std::int64_t kMinCellsPerStripe = 1 << 13;
/// Hard cap on a scan's transient bytes beyond its children: a sparse
/// scan's offset tables, further capped at the bytes of its own children.
inline constexpr std::int64_t kScanScratchBudgetBytes =
    std::int64_t{64} << 20;

/// One stripe of a scan: the region's cells whose coordinate along `dim`,
/// counted from the region's low corner, lies in [lo, hi). A lone stripe
/// feeds the targets that drop the plan's slab dimension, any other stripe
/// the targets that keep it.
struct ScanStripe {
  int dim = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool lone = false;
};

/// Deterministic decomposition of one scan, a function of the region's
/// extents (and for sparse scans the nonzero count) only: slabs of
/// `slab_dim` for the targets that keep it, then stripes of a dimension
/// every target that drops it keeps (one stripe if there is none). A
/// dimension that spans several units (dense: rows; sparse: chunks) is
/// split at unit boundaries, one in a single unit between cells.
struct StripePlan {
  /// -1 for a one-stripe scan, whose one stripe feeds every target.
  int slab_dim = -1;
  /// In the order the pool claims them: the lone stripes first.
  std::vector<ScanStripe> stripes;
};

/// Stripe plan for a dense scan of a region of these extents for targets
/// that drop the given position sets; its units are the region's rows.
StripePlan plan_dense_scan(const Shape& region,
                           std::span<const DimSet> dropped);

/// Stripe plan for a sparse chunk-offset scan of a region of these extents
/// in chunks of `chunk_extents`. `work_cells` sizes the stripes (the
/// kernel passes the smaller of nnz and the region's cells; pass
/// region.size() for a data-independent worst case).
StripePlan plan_sparse_scan(const Shape& region,
                            std::span<const std::int64_t> chunk_extents,
                            std::span<const DimSet> dropped,
                            std::int64_t work_cells);

/// Upper bound on the transient bytes ANY scan of a region of these
/// extents for these targets may allocate beyond its children, independent
/// of chunk layout, nonzero count, operator and thread count:
/// min(kScanScratchBudgetBytes, sum of child bytes) — the cap on the
/// sparse scan's offset table.
/// The static schedule analysis charges this per planned scan.
std::int64_t scan_scratch_bound(const Shape& region,
                                std::span<const DimSet> dropped);

/// Scans `region` of a dense parent (BlockRange::whole for all of it) once,
/// combining every target simultaneously under `op`. `input_level`
/// selects the parent's cell semantics: true means raw input (0 marks an
/// empty cell; COUNT counts the others), false means an aggregate view
/// whose empty cells hold the operator's identity. Striped over the pool
/// per plan_dense_scan; every child cell combines its contributions in
/// row-major order, for any pool size. A scalar parent is one cell.
AggregationStats aggregate_children(
    const DenseArray& parent, std::span<const AggregationTarget> targets,
    const BlockRange& region, const AggregateOptions& options = {},
    AggregateOp op = AggregateOp::kSum, bool input_level = true);

/// Scans `region` of a chunk-offset sparse parent (raw input) once,
/// combining every target under `op`. Only the chunks that meet the region
/// are read, and of each only its runs of in-region cells. A
/// per-chunk-shape offset table, one int32 per (target, cell of a full
/// chunk), makes full chunks cost one lookup and one combine per
/// (non-zero, target). Tables are built only when the scan has at least
/// two targets, min(nnz, region cells) is at least a full chunk's cells,
/// and the tables fit scan_scratch_bound (at most the bytes of the
/// children); otherwise every chunk decodes its offsets, with the same
/// result. Striped over the pool per plan_sparse_scan; every child
/// cell combines its contributions in chunk order and, within a chunk, in
/// offset order, for any pool size.
AggregationStats aggregate_children(
    const SparseArray& parent, std::span<const AggregationTarget> targets,
    const BlockRange& region, const AggregateOptions& options = {},
    AggregateOp op = AggregateOp::kSum);

}  // namespace cubist
