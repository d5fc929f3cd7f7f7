// Failure injection and higher-dimensional sweeps.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cubist/cubist.h"

namespace cubist {
namespace {

TEST(FaultInjectionTest, ThrowingBlockProviderAbortsCleanly) {
  // One rank's provider throws; the runtime must unwind every rank and
  // surface the error instead of deadlocking the reductions.
  SparseSpec spec;
  spec.sizes = {8, 8};
  spec.density = 0.5;
  spec.seed = 1;
  const BlockProvider provider = [&](int rank, const BlockRange& block) {
    if (rank == 2) {
      throw std::runtime_error("disk failed on rank 2");
    }
    return generate_sparse_block(spec, block);
  };
  EXPECT_THROW(
      run_parallel_cube(spec.sizes, {1, 1}, CostModel{}, provider, true),
      std::runtime_error);
}

TEST(FaultInjectionTest, BadBlockShapeOnOneRankAborts) {
  SparseSpec spec;
  spec.sizes = {8, 8};
  spec.density = 0.5;
  spec.seed = 2;
  const BlockProvider provider = [&](int rank, const BlockRange& block) {
    if (rank == 1) {
      return SparseArray{Shape{{2, 2}}, {2, 2}};  // wrong extents
    }
    return generate_sparse_block(spec, block);
  };
  EXPECT_THROW(
      run_parallel_cube(spec.sizes, {1, 1}, CostModel{}, provider, false),
      InvalidArgument);
}

TEST(FaultInjectionTest, RuntimeIsReusableAfterAbort) {
  // A failed run must not poison subsequent runs (fresh RuntimeState per
  // run).
  SparseSpec spec;
  spec.sizes = {8, 8};
  spec.density = 0.5;
  spec.seed = 3;
  const BlockProvider bad = [&](int rank, const BlockRange& block) {
    if (rank == 0) throw std::logic_error("boom");
    return generate_sparse_block(spec, block);
  };
  const BlockProvider good = [&](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
  EXPECT_THROW(
      run_parallel_cube(spec.sizes, {1, 0}, CostModel{}, bad, false),
      std::logic_error);
  const auto report =
      run_parallel_cube(spec.sizes, {1, 0}, CostModel{}, good, true);
  EXPECT_EQ(compare_cubes(build_cube_sequential(generate_sparse_global(spec)),
                          *report.cube),
            "");
}

TEST(ScaleTest, FiveDimensionalCubeSequential) {
  // 2^5 = 32 views; exercised against the independent reference path.
  SparseSpec spec;
  spec.sizes = {6, 5, 4, 3, 2};
  spec.density = 0.3;
  spec.seed = 5;
  const SparseArray root = generate_sparse_global(spec);
  BuildStats stats;
  const CubeResult cube = build_cube_sequential(root, &stats);
  EXPECT_EQ(cube.num_views(), 31u);
  EXPECT_EQ(compare_cubes(reference_cube(root), cube), "");
  EXPECT_EQ(validate_cube_consistency(cube), "");
  EXPECT_LE(stats.peak_live_bytes,
            sequential_memory_bound(CubeLattice(spec.sizes)));
}

TEST(ScaleTest, FiveDimensionalCubeParallel) {
  SparseSpec spec;
  spec.sizes = {8, 6, 4, 4, 2};
  spec.density = 0.25;
  spec.seed = 7;
  const BlockProvider provider = [&](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
  const CubeResult expected =
      build_cube_sequential(generate_sparse_global(spec));
  for (const std::vector<int>& splits :
       {std::vector<int>{1, 1, 1, 0, 0}, std::vector<int>{2, 0, 0, 1, 0},
        std::vector<int>{0, 0, 0, 0, 1}}) {
    const auto report = run_parallel_cube(spec.sizes, splits, CostModel{},
                                          provider, true);
    EXPECT_EQ(compare_cubes(expected, *report.cube), "")
        << ProcGrid(splits).to_string();
    EXPECT_EQ(report.construction_bytes,
              total_volume_elements(spec.sizes, splits) *
                  static_cast<std::int64_t>(sizeof(Value)))
        << ProcGrid(splits).to_string();
  }
}

TEST(ScaleTest, SixDimensionalLatticeStructures) {
  // Structural scale test: the trees and bounds stay consistent at n=6
  // (64 views) without building arrays.
  const std::vector<std::int64_t> sizes{8, 7, 6, 5, 4, 3};
  const CubeLattice lattice(sizes);
  ScheduleSpec sequential;
  sequential.sizes = sizes;
  sequential.log_splits.assign(sizes.size(), 0);
  const AnalysisReport planned = verify_schedule(sequential);
  EXPECT_TRUE(planned.ok()) << planned.to_string();
  EXPECT_LE(planned.max_peak_live_bytes,
            sequential_memory_bound(lattice));
  // Greedy == exhaustive at this scale too.
  const auto greedy = greedy_partition(sizes, 5);
  const auto best = exhaustive_partition(sizes, 5);
  EXPECT_EQ(total_volume_elements(sizes, greedy),
            total_volume_elements(sizes, best));
}

TEST(ScaleTest, RandomizedGridSweepFourDims) {
  // Randomized property sweep: any feasible random grid on a random 4-D
  // cube reproduces the sequential cube and the Theorem-3 volume.
  Xoshiro256ss rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    SparseSpec spec;
    spec.sizes = {static_cast<std::int64_t>(4 + rng.next_below(13)),
                  static_cast<std::int64_t>(4 + rng.next_below(13)),
                  static_cast<std::int64_t>(4 + rng.next_below(13)),
                  static_cast<std::int64_t>(4 + rng.next_below(13))};
    spec.density = 0.2 + 0.1 * static_cast<double>(rng.next_below(4));
    spec.seed = rng.next();
    std::vector<int> splits(4, 0);
    for (int step = 0; step < 3; ++step) {
      const auto d = static_cast<std::size_t>(rng.next_below(4));
      if ((std::int64_t{2} << splits[d]) <= spec.sizes[d]) {
        ++splits[d];
      }
    }
    const BlockProvider provider = [spec](int, const BlockRange& block) {
      return generate_sparse_block(spec, block);
    };
    const CubeResult expected =
        build_cube_sequential(generate_sparse_global(spec));
    const auto report = run_parallel_cube(spec.sizes, splits, CostModel{},
                                          provider, true);
    EXPECT_EQ(compare_cubes(expected, *report.cube), "")
        << "trial " << trial << " grid " << ProcGrid(splits).to_string();
    EXPECT_EQ(validate_cube_consistency(*report.cube), "");
  }
}

}  // namespace
}  // namespace cubist
