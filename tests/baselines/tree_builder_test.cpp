#include "baselines/tree_builder.h"

#include <gtest/gtest.h>

#include "core/verify.h"
#include "io/generators.h"
#include "lattice/memory_sim.h"
#include "test_util.h"

namespace cubist {
namespace {

TEST(TreeBuilderTest, AggregationTreeMultiwayMatchesMainBuilder) {
  const DenseArray root = testing::random_dense({6, 5, 4}, 0.4, 2);
  BuildStats tree_stats;
  const CubeResult via_tree = build_cube_with_tree(
      root, SpanningTree::aggregation(3), ScanDiscipline::kMultiWay,
      &tree_stats);
  BuildStats main_stats;
  const CubeResult via_main = build_cube_sequential(root, &main_stats);
  EXPECT_EQ(compare_cubes(via_main, via_tree), "");
  // Identical tree and discipline -> identical work and memory.
  EXPECT_EQ(tree_stats.cells_scanned, main_stats.cells_scanned);
  EXPECT_EQ(tree_stats.updates, main_stats.updates);
  EXPECT_EQ(tree_stats.peak_live_bytes, main_stats.peak_live_bytes);
}

TEST(TreeBuilderTest, EveryTreeAndDisciplineProducesTheSameCube) {
  const DenseArray root = testing::random_dense({7, 5, 3}, 0.5, 9);
  const CubeLattice lattice(root.shape().extents());
  const CubeResult expected = reference_cube(root);

  // All-from-root's edges drop several dimensions: one scan of the root
  // feeds every view under the multi-way discipline.
  const std::vector<SpanningTree> trees{
      SpanningTree::aggregation(3), SpanningTree::minimal_parent(lattice),
      SpanningTree::mmst(lattice, {2, 2, 2}), SpanningTree::all_from_root(3)};
  for (const SpanningTree& tree : trees) {
    for (ScanDiscipline discipline :
         {ScanDiscipline::kMultiWay, ScanDiscipline::kPerChild}) {
      const CubeResult actual = build_cube_with_tree(root, tree, discipline);
      EXPECT_EQ(compare_cubes(expected, actual), "");
    }
  }
}

TEST(TreeBuilderTest, SparseRootWorksForAllTrees) {
  SparseSpec spec;
  spec.sizes = {8, 6, 4};
  spec.density = 0.3;
  spec.seed = 77;
  const SparseArray root = generate_sparse_global(spec);
  const CubeResult expected = reference_cube(root);
  const CubeLattice lattice(spec.sizes);
  EXPECT_EQ(compare_cubes(expected, build_cube_with_tree(
                                        root, SpanningTree::aggregation(3),
                                        ScanDiscipline::kMultiWay)),
            "");
  EXPECT_EQ(compare_cubes(
                expected, build_cube_with_tree(
                              root, SpanningTree::minimal_parent(lattice),
                              ScanDiscipline::kPerChild)),
            "");
  EXPECT_EQ(compare_cubes(expected, build_cube_with_tree(
                                        root, SpanningTree::all_from_root(3),
                                        ScanDiscipline::kPerChild)),
            "");
}

TEST(TreeBuilderTest, PerChildScansMoreThanMultiway) {
  // Cache/memory reuse claim: per-child rescans cost strictly more scans
  // on any cube with more than one child per node.
  const DenseArray root = testing::random_dense({6, 6, 6}, 1.0, 4);
  BuildStats multi;
  BuildStats per_child;
  build_cube_with_tree(root, SpanningTree::aggregation(3),
                       ScanDiscipline::kMultiWay, &multi);
  build_cube_with_tree(root, SpanningTree::aggregation(3),
                       ScanDiscipline::kPerChild, &per_child);
  EXPECT_GT(per_child.cells_scanned, multi.cells_scanned);
}

TEST(TreeBuilderTest, NaiveTreeScansTheMost) {
  const DenseArray root = testing::random_dense({6, 6, 6}, 1.0, 8);
  BuildStats agg;
  BuildStats naive;
  build_cube_with_tree(root, SpanningTree::aggregation(3),
                       ScanDiscipline::kMultiWay, &agg);
  build_cube_with_tree(root, SpanningTree::all_from_root(3),
                       ScanDiscipline::kPerChild, &naive);
  EXPECT_GT(naive.cells_scanned, agg.cells_scanned);
}

TEST(TreeBuilderTest, AggregationTreePeakMatchesTheorem1) {
  const std::vector<std::int64_t> sizes{8, 6, 4};
  const DenseArray root = testing::random_dense(sizes, 0.5, 6);
  BuildStats stats;
  build_cube_with_tree(root, SpanningTree::aggregation(3),
                       ScanDiscipline::kMultiWay, &stats);
  EXPECT_EQ(stats.peak_live_bytes,
            sequential_memory_bound(CubeLattice(sizes)));
}

TEST(TreeBuilderTest, MmstAndMnstBuildsKeepTheirStats) {
  // Both trees differ from the aggregation tree (9 and 7 parents), so each
  // walk takes its own order; the numbers were recorded from the
  // hand-written builder the shared walk replaced.
  SparseSpec spec;
  spec.sizes = {5, 9, 4, 7};
  spec.density = 0.3;
  spec.seed = 31;
  const SparseArray root = generate_sparse_global(spec);
  ASSERT_EQ(root.nnz(), 400);
  const CubeLattice lattice(spec.sizes);
  const CubeResult expected = reference_cube(root);
  struct Pin {
    const char* name;
    SpanningTree tree;
    ScanDiscipline discipline;
    std::int64_t peak_live_bytes;
    std::int64_t cells_scanned;
    std::int64_t updates;
  };
  const SpanningTree mmst = SpanningTree::mmst(lattice, {2, 3, 2, 3});
  const SpanningTree mnst = SpanningTree::minimal_parent(lattice);
  const std::vector<Pin> pins{
      {"MMST multi-way", mmst, ScanDiscipline::kMultiWay, 7976, 1132, 2852},
      {"MMST per-child", mmst, ScanDiscipline::kPerChild, 3024, 2852, 2852},
      {"MNST multi-way", mnst, ScanDiscipline::kMultiWay, 7744, 1060, 2740},
      {"MNST per-child", mnst, ScanDiscipline::kPerChild, 2520, 2740, 2740},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    BuildStats stats;
    const CubeResult cube =
        build_cube_with_tree(root, pin.tree, pin.discipline, &stats);
    EXPECT_EQ(compare_cubes(expected, cube), "");
    EXPECT_EQ(stats.peak_live_bytes, pin.peak_live_bytes);
    EXPECT_EQ(stats.cells_scanned, pin.cells_scanned);
    EXPECT_EQ(stats.updates, pin.updates);
    EXPECT_EQ(stats.written_bytes, 9120);
  }
}

TEST(TreeBuilderTest, RankMismatchThrows) {
  const DenseArray root = testing::random_dense({4, 4}, 0.5, 1);
  EXPECT_THROW(build_cube_with_tree(root, SpanningTree::aggregation(3),
                                    ScanDiscipline::kMultiWay),
               InvalidArgument);
}

}  // namespace
}  // namespace cubist
