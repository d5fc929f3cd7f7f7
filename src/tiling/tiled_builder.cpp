#include "tiling/tiled_builder.h"

#include <algorithm>

#include "common/error.h"
#include "common/mathutil.h"
#include "core/tree_walk.h"
#include "io/generators.h"
#include "lattice/cube_lattice.h"
#include "lattice/memory_sim.h"
#include "obs/trace.h"

namespace cubist {
namespace {

/// Total cells of all views that do not retain dimension 0 (they must stay
/// live across every slab): sum over subsets of {1..n-1} of the retained
/// extents' product = prod_{j>=1} (1 + D_j).
std::int64_t persistent_cells(const std::vector<std::int64_t>& sizes) {
  std::int64_t cells = 1;
  for (std::size_t j = 1; j < sizes.size(); ++j) {
    cells *= 1 + sizes[j];
  }
  return cells;
}

std::int64_t predicted_peak(const std::vector<std::int64_t>& sizes,
                            std::int64_t tile_extent) {
  std::vector<std::int64_t> slab_sizes = sizes;
  slab_sizes[0] = tile_extent;
  return sequential_memory_bound(CubeLattice(slab_sizes),
                                 static_cast<std::int64_t>(sizeof(Value))) +
         persistent_cells(sizes) * static_cast<std::int64_t>(sizeof(Value));
}

}  // namespace

TilingPlan plan_tiling(const std::vector<std::int64_t>& sizes,
                       std::int64_t memory_budget) {
  CUBIST_CHECK(!sizes.empty(), "no dimensions");
  CUBIST_CHECK(memory_budget > 0, "budget must be positive");
  const std::int64_t d0 = sizes[0];
  for (std::int64_t tiles = 1; tiles <= d0; ++tiles) {
    const std::int64_t extent = ceil_div(d0, tiles);
    // Skip tile counts that do not shrink the slab further.
    if (tiles > 1 && extent == ceil_div(d0, tiles - 1)) continue;
    TilingPlan plan;
    plan.num_tiles = ceil_div(d0, extent);
    plan.tile_extent = extent;
    plan.predicted_peak_bytes = predicted_peak(sizes, extent);
    if (plan.predicted_peak_bytes <= memory_budget) {
      return plan;
    }
  }
  CUBIST_CHECK(false, "memory budget " << memory_budget
                                       << " B unreachable even with "
                                          "single-row slabs");
  return {};
}

CubeResult build_cube_tiled(const SparseArray& root, const TilingPlan& plan,
                            TiledBuildStats* stats, AggregateOp op) {
  const std::vector<std::int64_t> sizes = root.shape().extents();
  const int n = root.ndim();
  CUBIST_CHECK(plan.tile_extent >= 1 && plan.tile_extent <= sizes[0],
               "bad tile extent");
  CubeResult result(sizes);
  TiledBuildStats totals;
  totals.tiles = ceil_div(sizes[0], plan.tile_extent);

  // Views lacking dimension 0 combine across slabs under the operator;
  // everything else is emitted per slab into its final place.
  ViewBlocks persistent;
  const std::int64_t persistent_bytes =
      persistent_cells(sizes) * static_cast<std::int64_t>(sizeof(Value));

  for (std::int64_t lo = 0; lo < sizes[0]; lo += plan.tile_extent) {
    obs::Span tile_span("build", "tile");
    tile_span.tag("lo", lo);
    const std::int64_t hi = std::min(sizes[0], lo + plan.tile_extent);
    std::vector<std::int64_t> slab_lo(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> slab_hi = sizes;
    slab_lo[0] = lo;
    slab_hi[0] = hi;
    const BlockRange slab(slab_lo, slab_hi);
    std::vector<std::int64_t> chunks = default_chunks(slab.extents());
    const SparseArray slab_root = extract_block(root, slab, std::move(chunks));

    TreeWalk<> walk(n, op, AggregateOptions{});
    ViewBlocks slab_views = walk.run(slab_root);
    const BuildStats& slab_stats = walk.stats();
    totals.cells_scanned += slab_stats.cells_scanned;
    totals.updates += slab_stats.updates;
    totals.peak_live_bytes =
        std::max(totals.peak_live_bytes,
                 slab_stats.peak_live_bytes + persistent_bytes);
    totals.peak_scratch_bytes =
        std::max(totals.peak_scratch_bytes, slab_stats.peak_scratch_bytes);

    for (auto& [mask, slab_view] : slab_views) {
      const DimSet view = DimSet::from_mask(mask);
      if (view.contains(0)) {
        // Dimension 0 is the slowest-varying dimension of the view, so the
        // slab's portion is one contiguous stretch of the full array.
        if (!result.has(view)) {
          std::vector<std::int64_t> extents;
          for (int d : view.dims()) extents.push_back(sizes[d]);
          result.put(view, DenseArray{Shape{extents}});
        }
        DenseArray& full = result.mutable_view(view);
        const std::int64_t offset = lo * full.shape().stride(0);
        std::copy(slab_view.data(), slab_view.data() + slab_view.size(),
                  full.data() + offset);
        totals.written_bytes += slab_view.bytes();
      } else {
        auto [it, inserted] = persistent.try_emplace(mask,
                                                     std::move(slab_view));
        if (!inserted) {
          Value* acc = it->second.data();
          for (std::int64_t i = 0; i < slab_view.size(); ++i) {
            combine(op, acc[i], slab_view[i]);
          }
        }
      }
    }
  }
  for (auto& [mask, array] : persistent) {
    totals.written_bytes += array.bytes();
    result.put(DimSet::from_mask(mask), std::move(array));
  }
  // Only now is every view complete, so each is finalized exactly once.
  for (DimSet view : result.stored_views()) {
    finalize_view(op, result.mutable_view(view));
  }
  if (stats != nullptr) {
    *stats = totals;
  }
  return result;
}

}  // namespace cubist
