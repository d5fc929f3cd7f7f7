#include "lattice/ancestor_table.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/view_selection.h"
#include "lattice/cube_lattice.h"

namespace cubist {
namespace {

/// Reference routing, independent of the table: a linear scan of the
/// materialized set, smallest cells first with ties toward the lowest
/// mask.
std::optional<DimSet> brute_force_route(const CubeLattice& lattice,
                                        const std::vector<DimSet>& views,
                                        DimSet query) {
  std::optional<DimSet> best;
  for (DimSet m : views) {
    if (!query.is_subset_of(m)) continue;
    if (!best || lattice.view_cells(m) < lattice.view_cells(*best) ||
        (lattice.view_cells(m) == lattice.view_cells(*best) &&
         m.mask() < best->mask())) {
      best = m;
    }
  }
  return best;
}

std::vector<DimSet> proper_views(const CubeLattice& lattice) {
  std::vector<DimSet> out;
  for (DimSet view : lattice.all_views()) {
    if (view != DimSet::full(lattice.ndims())) out.push_back(view);
  }
  return out;
}

TEST(AncestorTableTest, MatchesBruteForceOnEverySelection4D) {
  const CubeLattice lattice({5, 4, 3, 2});
  const std::vector<std::vector<DimSet>> selections = {
      {},
      {DimSet::of({0, 1})},
      {DimSet::of({0, 1}), DimSet::of({2, 3})},
      {DimSet::of({0, 1, 2}), DimSet::of({1, 2, 3}), DimSet::of({2})},
      select_views_greedy(lattice, 4).views,
      proper_views(lattice),
  };
  for (const std::vector<DimSet>& views : selections) {
    const AncestorTable table = AncestorTable::build(lattice, views);
    for (DimSet query : lattice.all_views()) {
      if (query == DimSet::full(4)) continue;
      EXPECT_EQ(table.route(query), brute_force_route(lattice, views, query))
          << "query " << query.to_string();
    }
  }
}

TEST(AncestorTableTest, MaterializedViewRoutesToItself) {
  const CubeLattice lattice({6, 5, 4});
  const std::vector<DimSet> views{DimSet::of({0, 2}), DimSet::of({1})};
  const AncestorTable table = AncestorTable::build(lattice, views);
  for (DimSet view : views) {
    EXPECT_TRUE(table.is_materialized(view));
    ASSERT_TRUE(table.route(view).has_value());
    EXPECT_EQ(*table.route(view), view);
    EXPECT_EQ(table.routed_cells(view), lattice.view_cells(view));
  }
}

TEST(AncestorTableTest, EmptySelectionRoutesEverythingToInput) {
  const CubeLattice lattice({4, 3, 2});
  const AncestorTable table = AncestorTable::build(lattice, {});
  const std::int64_t root_cells = lattice.view_cells(DimSet::full(3));
  for (DimSet view : lattice.all_views()) {
    EXPECT_FALSE(table.route(view).has_value()) << view.to_string();
    EXPECT_EQ(table.routed_cells(view), root_cells);
  }
}

TEST(AncestorTableTest, TiesBreakTowardTheLowestMask) {
  // Extent-1 dimensions make {0} and {0,1} the same size; the routing of
  // their common subset {} must pick the lower mask, {0}.
  const CubeLattice lattice({4, 1, 3});
  const AncestorTable table = AncestorTable::build(
      lattice, {DimSet::of({0, 1}), DimSet::of({0})});
  ASSERT_TRUE(table.route(DimSet()).has_value());
  EXPECT_EQ(*table.route(DimSet()), DimSet::of({0}));
}

TEST(AncestorTableTest, RoutedCellsEqualsQueryCostEverywhere) {
  // routed_cells() must charge exactly what the linear cost model the
  // greedy optimizes charges — including the root fallback.
  const CubeLattice lattice({5, 4, 3, 2});
  const std::vector<DimSet> views = select_views_greedy(lattice, 3).views;
  const AncestorTable table = AncestorTable::build(lattice, views);
  for (DimSet query : lattice.all_views()) {
    EXPECT_EQ(table.routed_cells(query), query_cost(lattice, views, query))
        << query.to_string();
  }
}

TEST(AncestorTableTest, RejectsRootAndOutOfLatticeViews) {
  const CubeLattice lattice({4, 3});
  EXPECT_THROW(AncestorTable::build(lattice, {DimSet::full(2)}),
               InvalidArgument);
  EXPECT_THROW(AncestorTable::build(lattice, {DimSet::of({2})}),
               InvalidArgument);
  const AncestorTable table = AncestorTable::build(lattice, {});
  EXPECT_THROW(table.route(DimSet::of({2})), InvalidArgument);
}

}  // namespace
}  // namespace cubist
