#include "core/sequential_builder.h"

#include <gtest/gtest.h>

#include "core/verify.h"
#include "io/generators.h"
#include "lattice/memory_sim.h"
#include "test_util.h"

namespace cubist {
namespace {

TEST(SequentialBuilderTest, TwoDimCubeByHand) {
  // root = [[1,2],[3,4]] (2x2): view {0} = row sums, {1} = col sums,
  // all = 10.
  DenseArray root{Shape{{2, 2}}};
  root.at({0, 0}) = 1;
  root.at({0, 1}) = 2;
  root.at({1, 0}) = 3;
  root.at({1, 1}) = 4;
  const CubeResult cube = build_cube_sequential(root);
  EXPECT_EQ(cube.num_views(), 3u);
  EXPECT_EQ(cube.query(DimSet::of({0}), {0}), 3.0);
  EXPECT_EQ(cube.query(DimSet::of({0}), {1}), 7.0);
  EXPECT_EQ(cube.query(DimSet::of({1}), {0}), 4.0);
  EXPECT_EQ(cube.query(DimSet::of({1}), {1}), 6.0);
  EXPECT_EQ(cube.query(DimSet(), {}), 10.0);
}

class SequentialVsReferenceTest
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(SequentialVsReferenceTest, MatchesNaiveReferenceCube) {
  const DenseArray root = testing::random_dense(GetParam(), 0.4, 11);
  const CubeResult expected = reference_cube(root);
  const CubeResult actual = build_cube_sequential(root);
  EXPECT_EQ(compare_cubes(expected, actual), "");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SequentialVsReferenceTest,
    ::testing::Values(std::vector<std::int64_t>{7},
                      std::vector<std::int64_t>{5, 3},
                      std::vector<std::int64_t>{8, 4, 2},
                      std::vector<std::int64_t>{2, 4, 8},  // unordered sizes
                      std::vector<std::int64_t>{3, 3, 3, 3},
                      std::vector<std::int64_t>{4, 3, 3, 2, 2}));

TEST(SequentialBuilderTest, SparseRootMatchesDenseRoot) {
  const DenseArray dense = testing::random_dense({9, 7, 5}, 0.2, 23);
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4, 4});
  const CubeResult from_dense = build_cube_sequential(dense);
  const CubeResult from_sparse = build_cube_sequential(sparse);
  EXPECT_EQ(compare_cubes(from_dense, from_sparse), "");
}

TEST(SequentialBuilderTest, EveryViewTotalEqualsGrandTotal) {
  const DenseArray root = testing::random_dense({6, 5, 4}, 0.5, 3);
  const CubeResult cube = build_cube_sequential(root);
  for (DimSet view : cube.stored_views()) {
    EXPECT_EQ(cube.view(view).total(), root.total()) << view.to_string();
  }
}

TEST(SequentialBuilderTest, PeakMemoryWithinTheorem1Bound) {
  for (const auto& sizes : std::vector<std::vector<std::int64_t>>{
           {8, 4, 2}, {16, 16, 16}, {9, 7, 5, 3}, {2, 4, 8}}) {
    const DenseArray root = testing::random_dense(sizes, 0.6, 5);
    BuildStats stats;
    build_cube_sequential(root, &stats);
    const CubeLattice lattice(sizes);
    EXPECT_LE(stats.peak_live_bytes,
              sequential_memory_bound(lattice));
    // Theorem 2 tightness: the first level alone reaches the bound.
    EXPECT_EQ(stats.peak_live_bytes,
              sequential_memory_bound(lattice));
  }
}

TEST(SequentialBuilderTest, WrittenBytesEqualAllProperViewSizes) {
  const std::vector<std::int64_t> sizes{6, 5, 4};
  const DenseArray root = testing::random_dense(sizes, 0.5, 9);
  BuildStats stats;
  build_cube_sequential(root, &stats);
  const CubeLattice lattice(sizes);
  std::int64_t expected = 0;
  for (DimSet view : lattice.all_views()) {
    if (view != DimSet::full(3)) {
      expected += lattice.view_cells(view) *
                  static_cast<std::int64_t>(sizeof(Value));
    }
  }
  EXPECT_EQ(stats.written_bytes, expected);
}

TEST(SequentialBuilderTest, ScanStatsMatchMultiwayDiscipline) {
  // Every internal aggregation-tree node is scanned exactly once; the
  // dense root contributes its full size.
  const std::vector<std::int64_t> sizes{4, 3, 2};
  const DenseArray root = testing::random_dense(sizes, 1.0, 2);
  BuildStats stats;
  build_cube_sequential(root, &stats);
  // Internal nodes of the n=3 aggregation tree: ABC(24), BC(6), AC(8),
  // C(2) -> scans = 24 + 6 + 8 + 2 = 40.
  EXPECT_EQ(stats.cells_scanned, 40);
  // Updates: ABC->3 children (24*3) + BC->2 (6*2) + AC->1 (8) + C->1 (2).
  EXPECT_EQ(stats.updates, 24 * 3 + 6 * 2 + 8 + 2);
}

TEST(SequentialBuilderTest, SparseRootScanCountsOnlyNonzeros) {
  const std::vector<std::int64_t> sizes{8, 8, 8};
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = 0.1;
  spec.seed = 77;
  const SparseArray root = generate_sparse_global(spec);
  BuildStats stats;
  build_cube_sequential(root, &stats);
  // First-level scan touches nnz cells; deeper levels are dense.
  const std::int64_t dense_deeper = 8 * 8 /*BC*/ + 8 * 8 /*AC*/ + 8 /*C*/;
  EXPECT_EQ(stats.cells_scanned, root.nnz() + dense_deeper);
}

TEST(SequentialBuilderTest, SingleDimensionCube) {
  const DenseArray root = testing::iota_dense({5});
  BuildStats stats;
  const CubeResult cube = build_cube_sequential(root, &stats);
  EXPECT_EQ(cube.num_views(), 1u);
  EXPECT_EQ(cube.query(DimSet(), {}), 15.0);
  EXPECT_EQ(stats.peak_live_bytes,
            static_cast<std::int64_t>(sizeof(Value)));
}

TEST(SequentialBuilderTest, AllZeroInputYieldsAllZeroCube) {
  const DenseArray root{Shape{{4, 4}}};
  const CubeResult cube = build_cube_sequential(root);
  for (DimSet view : cube.stored_views()) {
    EXPECT_EQ(cube.view(view).total(), 0.0);
  }
}

}  // namespace
}  // namespace cubist
