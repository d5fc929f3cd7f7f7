// End-to-end tests of the generalized aggregate operators through the
// sequential, parallel and tiled builders.
#include <gtest/gtest.h>

#include <cmath>

#include "core/parallel_driver.h"
#include "core/partition.h"
#include "core/sequential_builder.h"
#include "core/verify.h"
#include "io/generators.h"
#include "tiling/tiled_builder.h"

namespace cubist {
namespace {

constexpr AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kCount,
                                   AggregateOp::kMin, AggregateOp::kMax};

SparseSpec test_spec() {
  SparseSpec spec;
  spec.sizes = {8, 8, 4};
  spec.density = 0.35;
  spec.seed = 404;
  return spec;
}

/// Brute-force reference cube under `op`, straight from the non-zeros.
CubeResult reference_op_cube(const SparseArray& root, AggregateOp op) {
  const int n = root.ndim();
  CubeResult result(root.shape().extents());
  for (std::uint32_t mask = 0; mask + 1 < (std::uint32_t{1} << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    std::vector<std::int64_t> extents;
    for (int d : view.dims()) {
      extents.push_back(root.shape().extent(d));
    }
    DenseArray array{Shape{extents}};
    fill_identity(op, array);
    std::vector<std::int64_t> coords;
    root.for_each_nonzero([&](const std::int64_t* idx, Value v) {
      coords.clear();
      for (int d : view.dims()) {
        coords.push_back(idx[d]);
      }
      combine(op, array.at(coords), contribution_of(op, v));
    });
    finalize_view(op, array);
    result.put(view, std::move(array));
  }
  return result;
}

class BuilderOpsTest : public ::testing::TestWithParam<AggregateOp> {};

TEST_P(BuilderOpsTest, SequentialMatchesReference) {
  const AggregateOp op = GetParam();
  const SparseArray root = generate_sparse_global(test_spec());
  const CubeResult expected = reference_op_cube(root, op);
  const CubeResult actual = build_cube_sequential(root, nullptr, op);
  EXPECT_EQ(compare_cubes(expected, actual), "") << to_string(op);
}

TEST_P(BuilderOpsTest, DenseRootMatchesSparseRoot) {
  const AggregateOp op = GetParam();
  const SparseArray sparse = generate_sparse_global(test_spec());
  const DenseArray dense = sparse.to_dense();
  EXPECT_EQ(compare_cubes(build_cube_sequential(sparse, nullptr, op),
                          build_cube_sequential(dense, nullptr, op)),
            "")
      << to_string(op);
}

TEST_P(BuilderOpsTest, ParallelMatchesSequentialAcrossGrids) {
  const AggregateOp op = GetParam();
  const SparseSpec spec = test_spec();
  const SparseArray root = generate_sparse_global(spec);
  const CubeResult expected = build_cube_sequential(root, nullptr, op);
  const BlockProvider provider = [&spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
  ParallelOptions options;
  options.op = op;
  for (const std::vector<int>& splits :
       {std::vector<int>{1, 1, 1}, std::vector<int>{2, 0, 0},
        std::vector<int>{0, 1, 2}}) {
    const ParallelCubeReport report = run_parallel_cube(
        spec.sizes, splits, CostModel{}, provider, true, options);
    EXPECT_EQ(compare_cubes(expected, *report.cube), "")
        << to_string(op) << " grid " << ProcGrid(splits).to_string();
  }
}

TEST_P(BuilderOpsTest, TiledMatchesReference) {
  const AggregateOp op = GetParam();
  constexpr std::int64_t kTileExtent = 3;  // slabs [0,3) [3,6) [6,8)
  DenseArray dense = generate_sparse_global(test_spec()).to_dense();
  // Cell (y, z) = (0, 0) of view {1, 2} — which lacks dimension 0 — gets
  // data from the first slab only. Finalizing slabs before combining them
  // would turn the other slabs' empty cells into 0s, and MIN would read 0.
  for (std::int64_t x = 0; x < 8; ++x) dense.at({x, 0, 0}) = 0;
  dense.at({1, 0, 0}) = 7;
  const SparseArray root = SparseArray::from_dense(dense, {4, 4, 4});
  TilingPlan plan;
  plan.tile_extent = kTileExtent;
  TiledBuildStats stats;
  const CubeResult tiled = build_cube_tiled(root, plan, &stats, op);
  EXPECT_EQ(stats.tiles, 3);
  EXPECT_EQ(compare_cubes(reference_op_cube(root, op), tiled), "")
      << to_string(op);
  EXPECT_EQ(tiled.query(DimSet::of({1, 2}), {0, 0}),
            op == AggregateOp::kCount ? 1.0 : 7.0)
      << to_string(op);
}

INSTANTIATE_TEST_SUITE_P(Ops, BuilderOpsTest, ::testing::ValuesIn(kAllOps),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(BuilderOpsTest, CountCubeCountsNonzeros) {
  const SparseArray root = generate_sparse_global(test_spec());
  const CubeResult counts =
      build_cube_sequential(root, nullptr, AggregateOp::kCount);
  EXPECT_EQ(counts.query(DimSet(), {}), static_cast<Value>(root.nnz()));
}

TEST(BuilderOpsTest, MinMaxBracketTheData) {
  const SparseArray root = generate_sparse_global(test_spec());
  const CubeResult mins =
      build_cube_sequential(root, nullptr, AggregateOp::kMin);
  const CubeResult maxs =
      build_cube_sequential(root, nullptr, AggregateOp::kMax);
  // Generator values are 1..9.
  EXPECT_GE(mins.query(DimSet(), {}), 1.0);
  EXPECT_LE(maxs.query(DimSet(), {}), 9.0);
  EXPECT_LE(mins.query(DimSet(), {}), maxs.query(DimSet(), {}));
  // Per-cell: min <= max on every view cell with data.
  for (DimSet view : mins.stored_views()) {
    const DenseArray& lo = mins.view(view);
    const DenseArray& hi = maxs.view(view);
    for (std::int64_t i = 0; i < lo.size(); ++i) {
      EXPECT_LE(lo[i], hi[i]);
    }
  }
}

TEST(BuilderOpsTest, AverageFromSumAndCountCubes) {
  const SparseArray root = generate_sparse_global(test_spec());
  const CubeResult sums = build_cube_sequential(root);
  const CubeResult counts =
      build_cube_sequential(root, nullptr, AggregateOp::kCount);
  const DimSet view = DimSet::of({0});
  const DenseArray avg =
      average_of(sums.view(view), counts.view(view));
  for (std::int64_t i = 0; i < avg.size(); ++i) {
    if (counts.view(view)[i] != 0.0) {
      EXPECT_NEAR(avg[i], sums.view(view)[i] / counts.view(view)[i], 1e-12);
      EXPECT_GE(avg[i], 1.0);
      EXPECT_LE(avg[i], 9.0);
    }
  }
}

TEST(BuilderOpsTest, NoInfinitiesLeakIntoResults) {
  // A very sparse input leaves many empty view cells; MIN/MAX results
  // must contain 0 there, never +-inf.
  SparseSpec spec;
  spec.sizes = {16, 16, 16};
  spec.density = 0.01;
  spec.seed = 5;
  const SparseArray root = generate_sparse_global(spec);
  for (AggregateOp op : {AggregateOp::kMin, AggregateOp::kMax}) {
    const CubeResult cube = build_cube_sequential(root, nullptr, op);
    for (DimSet view : cube.stored_views()) {
      const DenseArray& array = cube.view(view);
      for (std::int64_t i = 0; i < array.size(); ++i) {
        EXPECT_TRUE(std::isfinite(array[i])) << to_string(op);
      }
    }
  }
}

TEST(BuilderOpsTest, ReductionMessageCapPreservesResults) {
  // The communication-frequency knob must not change any value, only the
  // message count.
  const SparseSpec spec = test_spec();
  const BlockProvider provider = [&spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
  const CubeResult expected =
      build_cube_sequential(generate_sparse_global(spec));
  ParallelOptions coarse;  // whole-block messages
  ParallelOptions fine;
  fine.reduce_message_elements = 8;
  CostModel model;
  model.overhead = 2e-6;  // LogP `o`: the cost fine granularity pays
  const auto coarse_report = run_parallel_cube(spec.sizes, {1, 1, 1},
                                               model, provider, true,
                                               coarse);
  const auto fine_report = run_parallel_cube(spec.sizes, {1, 1, 1},
                                             model, provider, true,
                                             fine);
  EXPECT_EQ(compare_cubes(expected, *coarse_report.cube), "");
  EXPECT_EQ(compare_cubes(expected, *fine_report.cube), "");
  // Same bytes, more messages, more simulated time (latency per message).
  EXPECT_EQ(fine_report.construction_bytes, coarse_report.construction_bytes);
  EXPECT_GT(fine_report.run.volume.total_messages,
            coarse_report.run.volume.total_messages);
  EXPECT_GT(fine_report.construction_seconds,
            coarse_report.construction_seconds);
}

}  // namespace
}  // namespace cubist
