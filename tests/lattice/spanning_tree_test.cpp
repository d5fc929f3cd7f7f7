#include "lattice/spanning_tree.h"

#include <gtest/gtest.h>

#include "lattice/aggregation_tree.h"

namespace cubist {
namespace {

TEST(SpanningTreeTest, AggregationTreeRoundTrip) {
  const int n = 4;
  const SpanningTree tree = SpanningTree::aggregation(n);
  const AggregationTree reference(n);
  for (std::uint32_t mask = 0; mask + 1 < (1u << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    EXPECT_EQ(tree.parent(view), reference.parent(view));
  }
}

/// Records a walk's scan, finalize and retire calls; finalize drops every
/// child whose mask is a multiple of 3, so the walks must also agree on
/// which subtrees they skip.
struct WalkRecorder {
  std::vector<std::vector<std::uint32_t>> events;
  void scan(DimSet view, const std::vector<DimSet>& children) {
    std::vector<std::uint32_t> event{0, view.mask()};
    for (DimSet child : children) event.push_back(child.mask());
    events.push_back(event);
  }
  bool finalize(DimSet view, DimSet child) {
    events.push_back({1, view.mask(), child.mask()});
    return child.mask() % 3 != 0;
  }
  void retire(DimSet view, bool keep) {
    events.push_back({2, view.mask(), keep ? 1u : 0u});
  }
};

TEST(SpanningTreeTest, AggregationChildrenAndWalkMatchTheAggregationTree) {
  for (int n = 1; n <= 5; ++n) {
    const SpanningTree tree = SpanningTree::aggregation(n);
    const AggregationTree reference(n);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      const DimSet view = DimSet::from_mask(mask);
      EXPECT_EQ(tree.children(view), reference.children(view))
          << "n=" << n << " view " << view.to_string();
    }
    WalkRecorder walked;
    WalkRecorder expected;
    walk_tree(tree, tree.root(), walked);
    walk_tree(reference, reference.root(), expected);
    EXPECT_EQ(walked.events, expected.events) << "n=" << n;
    EXPECT_FALSE(walked.events.empty());
  }
}

TEST(SpanningTreeTest, MinimalParentTreeUsesMinimalParents) {
  const CubeLattice lattice({9, 5, 3, 2});
  const SpanningTree tree = SpanningTree::minimal_parent(lattice);
  EXPECT_TRUE(tree.uses_minimal_parents(lattice));
}

TEST(SpanningTreeTest, AggregationTreeMinimalIffSizesDescending) {
  // Theorem 7, at the spanning-tree level.
  EXPECT_TRUE(SpanningTree::aggregation(3).uses_minimal_parents(
      CubeLattice({8, 4, 2})));
  EXPECT_FALSE(SpanningTree::aggregation(3).uses_minimal_parents(
      CubeLattice({2, 4, 8})));
}

TEST(SpanningTreeTest, AllFromRootParentsAreRoot) {
  const SpanningTree tree = SpanningTree::all_from_root(3);
  for (std::uint32_t mask = 0; mask + 1 < (1u << 3); ++mask) {
    EXPECT_EQ(tree.parent(DimSet::from_mask(mask)), DimSet::full(3));
  }
  EXPECT_EQ(tree.children(DimSet::full(3)).size(), 7u);
  EXPECT_TRUE(tree.children(DimSet::of({0})).empty());
}

TEST(SpanningTreeTest, ChildrenInverseOfParent) {
  const CubeLattice lattice({6, 5, 4});
  for (const SpanningTree& tree :
       {SpanningTree::aggregation(3), SpanningTree::minimal_parent(lattice),
        SpanningTree::all_from_root(3)}) {
    std::size_t total_children = 0;
    for (std::uint32_t mask = 0; mask < (1u << 3); ++mask) {
      const DimSet view = DimSet::from_mask(mask);
      for (DimSet child : tree.children(view)) {
        EXPECT_EQ(tree.parent(child), view);
      }
      total_children += tree.children(view).size();
    }
    EXPECT_EQ(total_children, 7u);  // every proper view has one parent
  }
}

TEST(SpanningTreeTest, RootParentThrows) {
  EXPECT_THROW(SpanningTree::aggregation(3).parent(DimSet::full(3)),
               InvalidArgument);
}

TEST(SpanningTreeTest, MultiwayScanCostCountsInternalNodesOnce) {
  // n=2, sizes {4,3}: aggregation tree: root AB (children B, A),
  // B={1}? children of B: complement {0}, max 0 -> j>=1: j=1 in B -> child
  // {} ... verify against hand count: internal nodes are AB (12 cells) and
  // the dim-1 view {1} (3 cells) which computes `all`.
  const CubeLattice lattice({4, 3});
  const SpanningTree tree = SpanningTree::aggregation(2);
  EXPECT_EQ(tree.multiway_scan_cost(lattice), 12 + 3);
}

TEST(SpanningTreeTest, PerChildScanCostSumsParentSizes) {
  const CubeLattice lattice({4, 3});
  const SpanningTree tree = SpanningTree::aggregation(2);
  // Edges: AB->B (scan 12), AB->A (scan 12), B->all (scan 3).
  EXPECT_EQ(tree.per_child_scan_cost(lattice), 12 + 12 + 3);
  // All-from-root: every proper view scans the root.
  EXPECT_EQ(SpanningTree::all_from_root(2).per_child_scan_cost(lattice),
            3 * 12);
}

TEST(SpanningTreeTest, MultiwayNeverCostsMoreThanPerChild) {
  const CubeLattice lattice({7, 6, 5, 4});
  for (const SpanningTree& tree :
       {SpanningTree::aggregation(4), SpanningTree::minimal_parent(lattice)}) {
    EXPECT_LE(tree.multiway_scan_cost(lattice),
              tree.per_child_scan_cost(lattice));
  }
}

TEST(SpanningTreeTest, MmstPrefersChunkBoundedParents) {
  const CubeLattice lattice({16, 16, 16});
  const SpanningTree tree = SpanningTree::mmst(lattice, {4, 4, 4});
  // Every edge must still be an immediate superset.
  for (std::uint32_t mask = 0; mask + 1 < (1u << 3); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    const DimSet parent = tree.parent(view);
    EXPECT_TRUE(view.is_subset_of(parent));
    EXPECT_EQ(parent.size(), view.size() + 1);
  }
}

TEST(SpanningTreeTest, MmstRankMismatchThrows) {
  const CubeLattice lattice({16, 16});
  EXPECT_THROW(SpanningTree::mmst(lattice, {4}), InvalidArgument);
}

}  // namespace
}  // namespace cubist
