#include "tiling/tiled_builder.h"

#include <gtest/gtest.h>

#include "core/sequential_builder.h"
#include "core/verify.h"
#include "io/generators.h"
#include "lattice/cube_lattice.h"
#include "lattice/memory_sim.h"

namespace cubist {
namespace {

SparseArray make_input(std::uint64_t seed = 19) {
  SparseSpec spec;
  spec.sizes = {16, 8, 8};
  spec.density = 0.3;
  spec.seed = seed;
  return generate_sparse_global(spec);
}

TEST(PlanTilingTest, GenerousBudgetMeansOneTile) {
  const std::vector<std::int64_t> sizes{16, 8, 8};
  const TilingPlan plan = plan_tiling(sizes, std::int64_t{1} << 30);
  EXPECT_EQ(plan.num_tiles, 1);
  EXPECT_EQ(plan.tile_extent, 16);
}

TEST(PlanTilingTest, TightBudgetForcesMoreTiles) {
  const std::vector<std::int64_t> sizes{16, 8, 8};
  const std::int64_t full =
      plan_tiling(sizes, std::int64_t{1} << 30).predicted_peak_bytes;
  const TilingPlan plan = plan_tiling(sizes, full - 1);
  EXPECT_GT(plan.num_tiles, 1);
  EXPECT_LE(plan.predicted_peak_bytes, full - 1);
}

TEST(PlanTilingTest, PredictedPeakDecreasesWithMoreTiles) {
  const std::vector<std::int64_t> sizes{32, 8, 8};
  std::int64_t previous = plan_tiling(sizes, std::int64_t{1} << 30)
                              .predicted_peak_bytes;
  for (std::int64_t budget = previous - 1; budget > 0; budget =
       plan_tiling(sizes, budget).predicted_peak_bytes - 1) {
    const TilingPlan plan = plan_tiling(sizes, budget);
    EXPECT_LE(plan.predicted_peak_bytes, budget);
    EXPECT_LT(plan.predicted_peak_bytes, previous);
    previous = plan.predicted_peak_bytes;
    if (plan.tile_extent == 1) break;
  }
}

TEST(PlanTilingTest, ImpossibleBudgetThrows) {
  EXPECT_THROW(plan_tiling({16, 8, 8}, 8), InvalidArgument);
}

TEST(TiledBuilderTest, SingleTileMatchesSequential) {
  const SparseArray root = make_input();
  TilingPlan plan;
  plan.num_tiles = 1;
  plan.tile_extent = 16;
  const CubeResult tiled = build_cube_tiled(root, plan);
  const CubeResult sequential = build_cube_sequential(root);
  EXPECT_EQ(compare_cubes(sequential, tiled), "");
}

class TiledEquivalenceTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TiledEquivalenceTest, AnyTileExtentMatchesSequential) {
  const SparseArray root = make_input(23);
  TilingPlan plan;
  plan.tile_extent = GetParam();
  plan.num_tiles = (16 + plan.tile_extent - 1) / plan.tile_extent;
  TiledBuildStats stats;
  const CubeResult tiled = build_cube_tiled(root, plan, &stats);
  const CubeResult sequential = build_cube_sequential(root);
  EXPECT_EQ(compare_cubes(sequential, tiled), "");
  EXPECT_EQ(stats.tiles, plan.num_tiles);
}

INSTANTIATE_TEST_SUITE_P(TileExtents, TiledEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

TEST(TiledBuilderTest, PeakStaysWithinPlannedBudget) {
  const SparseArray root = make_input(31);
  const std::vector<std::int64_t> sizes = root.shape().extents();
  const std::int64_t full_peak =
      sequential_memory_bound(CubeLattice(sizes));
  // The dimension-0-free views persist across slabs, so the reachable
  // floor is above full_peak/2 for this shape; 3/4 is reachable.
  const std::int64_t budget = full_peak * 3 / 4;
  const TilingPlan plan = plan_tiling(sizes, budget);
  TiledBuildStats stats;
  build_cube_tiled(root, plan, &stats);
  EXPECT_GT(plan.num_tiles, 1);
  EXPECT_LE(stats.peak_live_bytes, plan.predicted_peak_bytes);
  EXPECT_LE(stats.peak_live_bytes, budget);
  EXPECT_LT(stats.peak_live_bytes, full_peak);
}

TEST(TiledBuilderTest, MoreTilesTradeExtraWorkForMemory) {
  // Tiling trades extra work for memory: each non-zero is scanned once
  // (slabs partition the input), but the dimension-0-free views of every
  // slab cube are re-scanned per slab, so total work can only grow.
  const SparseArray root = make_input(37);
  TilingPlan one;
  one.tile_extent = 16;
  one.num_tiles = 1;
  TilingPlan four;
  four.tile_extent = 4;
  four.num_tiles = 4;
  TiledBuildStats stats_one;
  TiledBuildStats stats_four;
  build_cube_tiled(root, one, &stats_one);
  build_cube_tiled(root, four, &stats_four);
  EXPECT_GE(stats_four.cells_scanned, stats_one.cells_scanned);
  EXPECT_GE(stats_four.updates, stats_one.updates);
  EXPECT_LE(stats_four.peak_live_bytes, stats_one.peak_live_bytes);
}

TEST(TiledBuilderTest, BadTileExtentRejected) {
  const SparseArray root = make_input();
  TilingPlan plan;
  plan.tile_extent = 0;
  EXPECT_THROW(build_cube_tiled(root, plan), InvalidArgument);
  plan.tile_extent = 99;
  EXPECT_THROW(build_cube_tiled(root, plan), InvalidArgument);
}

}  // namespace
}  // namespace cubist
