// Tiling extension (paper §3: "what is the significance of the aggregation
// tree when the [Theorem-1] factor exceeds the available main memory?").
//
// When the memory bound does not fit, the input is processed in slabs
// along dimension 0 (the largest, under the canonical ordering). Views
// retaining dimension 0 are produced slab by slab and written out as soon
// as a slab's portion is complete, so only 1/T of them is ever live; views
// lacking dimension 0 combine across slabs. Because the aggregation
// tree minimizes the live set, it minimizes the number of slabs required —
// the property the paper claims for tiling. This is a deliberately
// simplified (single-dimension) variant of the authors' follow-up tiling
// paper; DESIGN.md records the substitution.
#pragma once

#include <cstdint>

#include "array/aggregate_op.h"
#include "array/sparse_array.h"
#include "core/cube_result.h"

namespace cubist {

/// Slab plan: dimension 0 is cut into `num_tiles` slabs of extent
/// `tile_extent` (last slab may be smaller).
struct TilingPlan {
  std::int64_t num_tiles = 1;
  std::int64_t tile_extent = 0;
  /// Predicted peak live bytes under this plan (slab-cube peak plus the
  /// persistent dimension-0-free accumulators).
  std::int64_t predicted_peak_bytes = 0;
};

/// Smallest number of slabs whose predicted peak fits `memory_budget`
/// bytes. Throws if even per-row slabs (extent 1) do not fit.
TilingPlan plan_tiling(const std::vector<std::int64_t>& sizes,
                       std::int64_t memory_budget);

/// Work/memory/I/O accounting of a tiled run.
struct TiledBuildStats {
  std::int64_t peak_live_bytes = 0;
  /// Bytes written back, including per-slab partial write-outs.
  std::int64_t written_bytes = 0;
  std::int64_t cells_scanned = 0;
  std::int64_t updates = 0;
  std::int64_t tiles = 1;
  /// High-water mark of transient scan-scratch bytes across all slabs.
  std::int64_t peak_scratch_bytes = 0;
};

/// Builds the full cube slab by slab under `plan`, each slab through the
/// shared aggregation-tree walk under `op`. The result is identical to
/// build_cube_sequential's under the same operator (asserted by tests);
/// only the memory/I/O profile differs.
CubeResult build_cube_tiled(const SparseArray& root, const TilingPlan& plan,
                            TiledBuildStats* stats = nullptr,
                            AggregateOp op = AggregateOp::kSum);

}  // namespace cubist
