#include "core/parallel_builder.h"

#include <gtest/gtest.h>

#include "core/parallel_driver.h"
#include "core/partition.h"
#include "core/sequential_builder.h"
#include "core/verify.h"
#include "lattice/volume_model.h"
#include "io/generators.h"
#include "lattice/memory_sim.h"

namespace cubist {
namespace {

SparseSpec small_spec() {
  SparseSpec spec;
  spec.sizes = {8, 8, 4};
  spec.density = 0.3;
  spec.seed = 42;
  return spec;
}

BlockProvider provider_for(const SparseSpec& spec) {
  return [spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
}

CubeResult sequential_cube(const SparseSpec& spec) {
  return build_cube_sequential(generate_sparse_global(spec));
}

/// The parallel cube must equal the sequential cube bit-exactly for EVERY
/// partition of p processors (integer-valued data, order-independent sums).
class AllPartitionsTest
    : public ::testing::TestWithParam<int /* log_p */> {};

TEST_P(AllPartitionsTest, ParallelMatchesSequentialForEveryGrid) {
  const int log_p = GetParam();
  const SparseSpec spec = small_spec();
  const CubeResult expected = sequential_cube(spec);
  for (const auto& splits :
       enumerate_partitions(static_cast<int>(spec.sizes.size()), log_p)) {
    // Skip grids that would split a dimension below one cell per rank.
    bool feasible = true;
    for (std::size_t d = 0; d < splits.size(); ++d) {
      if ((std::int64_t{1} << splits[d]) > spec.sizes[d]) feasible = false;
    }
    if (!feasible) continue;
    const ParallelCubeReport report = run_parallel_cube(
        spec.sizes, splits, CostModel{}, provider_for(spec),
        /*collect_result=*/true);
    ASSERT_TRUE(report.cube.has_value());
    EXPECT_EQ(compare_cubes(expected, *report.cube), "")
        << "splits " << ProcGrid(splits).to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(LogP, AllPartitionsTest, ::testing::Values(0, 1, 2, 3));

TEST(ParallelBuilderTest, SixteenProcessorRunMatchesSequential) {
  SparseSpec spec;
  spec.sizes = {16, 8, 8, 4};
  spec.density = 0.25;
  spec.seed = 7;
  const CubeResult expected = sequential_cube(spec);
  const ParallelCubeReport report = run_parallel_cube(
      spec.sizes, {1, 1, 1, 1}, CostModel{}, provider_for(spec), true);
  EXPECT_EQ(compare_cubes(expected, *report.cube), "");
}

class VolumeValidationTest
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(VolumeValidationTest, MeasuredBytesEqualLemma1PerView) {
  // The run's per-tag volume must match the Lemma-1 closed form
  // EXACTLY, per view, with divisible block sizes.
  const std::vector<int> splits = GetParam();
  SparseSpec spec;
  spec.sizes = {16, 8, 8};
  spec.density = 0.2;
  spec.seed = 13;
  const ParallelCubeReport report = run_parallel_cube(
      spec.sizes, splits, CostModel{}, provider_for(spec),
      /*collect_result=*/false);
  const auto expected = volume_by_view_elements(spec.sizes, splits);
  for (const auto& [mask, elements] : expected) {
    const std::int64_t expected_bytes =
        elements * static_cast<std::int64_t>(sizeof(Value));
    const auto it = report.bytes_by_view.find(mask);
    const std::int64_t measured =
        it == report.bytes_by_view.end() ? 0 : it->second;
    EXPECT_EQ(measured, expected_bytes)
        << "view " << DimSet::from_mask(mask).to_string() << " grid "
        << ProcGrid(splits).to_string();
  }
  // And in total (Theorem 3).
  EXPECT_EQ(report.construction_bytes,
            total_volume_elements(spec.sizes, splits) *
                static_cast<std::int64_t>(sizeof(Value)));
}

INSTANTIATE_TEST_SUITE_P(Grids, VolumeValidationTest,
                         ::testing::Values(std::vector<int>{1, 1, 1},
                                           std::vector<int>{3, 0, 0},
                                           std::vector<int>{0, 2, 1},
                                           std::vector<int>{2, 2, 0},
                                           std::vector<int>{1, 0, 0},
                                           std::vector<int>{0, 0, 3},
                                           std::vector<int>{4, 0, 1}));

TEST(ParallelBuilderTest, PeakMemoryWithinTheorem4Bound) {
  SparseSpec spec;
  spec.sizes = {16, 16, 8};
  spec.density = 0.5;
  spec.seed = 21;
  for (const std::vector<int>& splits :
       {std::vector<int>{1, 1, 1}, std::vector<int>{2, 1, 0},
        std::vector<int>{0, 0, 3}}) {
    const ParallelCubeReport report = run_parallel_cube(
        spec.sizes, splits, CostModel{}, provider_for(spec), false);
    const CubeLattice lattice(spec.sizes);
    EXPECT_LE(report.max_peak_live_bytes,
              parallel_memory_bound(lattice, splits))
        << ProcGrid(splits).to_string();
  }
}

TEST(ParallelBuilderTest, SingleRankDegeneratesToSequential) {
  const SparseSpec spec = small_spec();
  const ParallelCubeReport report = run_parallel_cube(
      spec.sizes, {0, 0, 0}, CostModel{}, provider_for(spec), true);
  EXPECT_EQ(report.construction_bytes, 0);
  EXPECT_EQ(compare_cubes(sequential_cube(spec), *report.cube), "");
}

TEST(ParallelBuilderTest, TotalLocalWorkEqualsSequentialWorkAtFirstLevel) {
  // The first level is fully parallelized: summing cells_scanned over
  // ranks for the root scan equals the global nnz. Deeper levels
  // sequentialize; total scans stay within p * sequential.
  const SparseSpec spec = small_spec();
  const SparseArray global = generate_sparse_global(spec);
  const ParallelCubeReport report = run_parallel_cube(
      spec.sizes, {1, 1, 1}, CostModel{}, provider_for(spec), false);
  EXPECT_EQ(report.total_nnz, global.nnz());
  std::int64_t total_scans = 0;
  for (const auto& stats : report.rank_stats) {
    total_scans += stats.cells_scanned;
  }
  BuildStats seq_stats;
  build_cube_sequential(global, &seq_stats);
  EXPECT_GE(total_scans, seq_stats.cells_scanned);
  EXPECT_LE(total_scans, 8 * seq_stats.cells_scanned);
}

TEST(ParallelBuilderTest, ConstructionClockIsPositiveAndBounded) {
  const SparseSpec spec = small_spec();
  const ParallelCubeReport report = run_parallel_cube(
      spec.sizes, {1, 1, 0}, CostModel{}, provider_for(spec), false);
  EXPECT_GT(report.construction_seconds, 0.0);
  // Construction clock excludes the gather phase, so it is bounded by the
  // full run's makespan.
  EXPECT_LE(report.construction_seconds, report.run.makespan_seconds + 1e-12);
}

TEST(ParallelBuilderTest, MorePartitionedDimensionsLessVolume) {
  // The qualitative heart of the paper's experiments, checked on the
  // measured (not modelled) bytes: 3-D < 2-D < 1-D partitions for a cube
  // of equal dimensions on 8 processors.
  SparseSpec spec;
  spec.sizes = {16, 16, 16, 16};
  spec.density = 0.2;
  spec.seed = 5;
  auto measured = [&](std::vector<int> splits) {
    return run_parallel_cube(spec.sizes, splits, CostModel{},
                             provider_for(spec), false)
        .construction_bytes;
  };
  const std::int64_t three_d = measured({1, 1, 1, 0});
  const std::int64_t two_d = measured({2, 1, 0, 0});
  const std::int64_t one_d = measured({3, 0, 0, 0});
  EXPECT_LT(three_d, two_d);
  EXPECT_LT(two_d, one_d);
}

TEST(ParallelBuilderTest, MismatchedBlockShapeThrows) {
  SparseSpec spec = small_spec();
  // Provider returns a block of the wrong extents.
  const BlockProvider bad = [&](int, const BlockRange&) {
    return SparseArray{Shape{{3, 3, 3}}, {2, 2, 2}};
  };
  EXPECT_THROW(
      run_parallel_cube(spec.sizes, {1, 0, 0}, CostModel{}, bad, false),
      InvalidArgument);
}

TEST(ParallelBuilderTest, NonDivisibleExtentsStillCorrect) {
  // 9x7x5 over a 2x2x1 grid: unequal blocks, equal view blocks along
  // retained dims per axis group — results must still be exact.
  SparseSpec spec;
  spec.sizes = {9, 7, 5};
  spec.density = 0.4;
  spec.seed = 31;
  const CubeResult expected = sequential_cube(spec);
  const ParallelCubeReport report = run_parallel_cube(
      spec.sizes, {1, 1, 0}, CostModel{}, provider_for(spec), true);
  EXPECT_EQ(compare_cubes(expected, *report.cube), "");
}

}  // namespace
}  // namespace cubist
