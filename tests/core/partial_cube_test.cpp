#include "core/partial_cube.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/verify.h"
#include "core/view_selection.h"
#include "io/generators.h"
#include "lattice/memory_sim.h"

namespace cubist {
namespace {

SparseArray make_input(std::uint64_t seed = 55) {
  SparseSpec spec;
  spec.sizes = {12, 8, 6};
  spec.density = 0.3;
  spec.seed = seed;
  return generate_sparse_global(spec);
}

/// The input's non-zeros at `coords` on `view`'s dimensions: the cells an
/// input-routed point query scans.
std::int64_t nnz_at(const SparseArray& input, DimSet view,
                    const std::vector<std::int64_t>& coords) {
  std::int64_t count = 0;
  input.for_each_nonzero([&](const std::int64_t* index, Value) {
    std::size_t c = 0;
    for (int d : view.dims()) {
      if (index[d] != coords[c++]) return;
    }
    ++count;
  });
  return count;
}

TEST(PartialCubeTest, MaterializedViewsAreDirect) {
  const SparseArray input = make_input();
  PartialCube cube = PartialCube::build(
      input, {DimSet::of({0, 1}), DimSet::of({2})});
  EXPECT_TRUE(cube.is_materialized(DimSet::of({0, 1})));
  EXPECT_TRUE(cube.is_materialized(DimSet::of({2})));
  EXPECT_FALSE(cube.is_materialized(DimSet::of({0})));
  EXPECT_EQ(cube.materialized_views().size(), 2u);
  std::int64_t cells = 0;
  const CubeResult full = reference_cube(input);
  EXPECT_EQ(cube.view(DimSet::of({0, 1})), full.view(DimSet::of({0, 1})));
  EXPECT_EQ(cube.view(DimSet::of({2})), full.view(DimSet::of({2})));
  const Value direct = cube.query(DimSet::of({2}), {3}, &cells);
  EXPECT_EQ(direct, full.query(DimSet::of({2}), {3}));
  EXPECT_EQ(cells, 1);
}

TEST(PartialCubeTest, EveryViewQueryMatchesFullCube) {
  const SparseArray input = make_input();
  const CubeResult full = reference_cube(input);
  const CubeLattice lattice(input.shape().extents());
  // A selection that leaves plenty of views unmaterialized.
  PartialCube cube = PartialCube::build(
      input, select_views_greedy(lattice, 3).views);
  for (DimSet view : lattice.all_views()) {
    if (view == DimSet::full(3)) continue;
    // Probe several coordinates of each view.
    const DenseArray& expected = full.view(view);
    std::vector<std::int64_t> coords(static_cast<std::size_t>(view.size()));
    for (std::int64_t linear = 0; linear < expected.size();
         linear += std::max<std::int64_t>(1, expected.size() / 7)) {
      expected.shape().unravel(linear, coords.data());
      EXPECT_EQ(cube.query(view, coords), expected[linear])
          << view.to_string() << " @" << linear;
      // Every route answers the same: the view itself when materialized
      // (one cell), each materialized ancestor (|from| / |view| cells)
      // and the input (its non-zeros in the point's region).
      std::vector<std::optional<DimSet>> routes{std::nullopt};
      for (DimSet from : cube.materialized_views()) {
        if (view.is_subset_of(from)) routes.push_back(from);
      }
      for (const std::optional<DimSet>& from : routes) {
        std::int64_t cells = 0;
        EXPECT_EQ(cube.query_from(from, view, coords, &cells),
                  expected[linear])
            << view.to_string() << " @" << linear << " from "
            << (from ? from->to_string() : "the input");
        EXPECT_EQ(cells, !from         ? nnz_at(input, view, coords)
                         : *from == view ? 1
                                         : lattice.view_cells(*from) /
                                               lattice.view_cells(view));
      }
    }
  }
}

TEST(PartialCubeTest, QueryFallsThroughToInputWhenNoAncestor) {
  const SparseArray input = make_input();
  const CubeResult full = reference_cube(input);
  PartialCube cube = PartialCube::build(input, {DimSet::of({2})});
  // {0,1} has no materialized ancestor (only {2} is stored).
  std::int64_t cells = 0;
  const Value got = cube.query(DimSet::of({0, 1}), {4, 2}, &cells);
  EXPECT_EQ(got, full.query(DimSet::of({0, 1}), {4, 2}));
  // Scanned the raw input's non-zeros in the point's region.
  EXPECT_EQ(cells, nnz_at(input, DimSet::of({0, 1}), {4, 2}));
  EXPECT_GT(cells, 0);
  EXPECT_LT(cells, input.nnz());
}

TEST(PartialCubeTest, QueryCostMatchesLinearCostModel) {
  const SparseArray input = make_input();
  const CubeLattice lattice(input.shape().extents());
  const std::vector<DimSet> selected{DimSet::of({0, 1}), DimSet::of({1, 2})};
  PartialCube cube = PartialCube::build(input, selected);
  // {1}: best ancestor {1,2} (48 cells) -> scans its 6 free cells * ...
  // actually scans |ancestor| / |view| cells = 48 / 8 = 6.
  std::int64_t cells = 0;
  cube.query(DimSet::of({1}), {5}, &cells);
  EXPECT_EQ(cells, lattice.view_cells(DimSet::of({1, 2})) /
                       lattice.view_cells(DimSet::of({1})));
  // The scalar `all` from the smaller materialized view.
  cube.query(DimSet(), {}, &cells);
  EXPECT_EQ(cells, std::min(lattice.view_cells(DimSet::of({0, 1})),
                            lattice.view_cells(DimSet::of({1, 2}))));
}

TEST(PartialCubeTest, BuildWalksTheAggregationTreePrunedToTheSelection) {
  // The chain {0,1} > {0} > {} is built by the aggregation-tree walk: one
  // input scan yields {1,2}, {0,2} and {0,1}; {0} comes from {0,2}, and
  // {} from {2}, which comes from {1,2}. {1} is on no path to a selected
  // view, so {1,2}'s scan skips it.
  const SparseArray input = make_input();
  BuildStats stats;
  const PartialCube cube = PartialCube::build(
      input, {DimSet::of({0, 1}), DimSet::of({0}), DimSet()}, &stats);
  const std::int64_t walk_cost = input.nnz() + 12 * 6 /* scan {0,2} */ +
                                 8 * 6 /* scan {1,2} */ + 6 /* scan {2} */;
  EXPECT_EQ(stats.cells_scanned, walk_cost);
  EXPECT_EQ(stats.written_bytes, cube.materialized_bytes());
}

TEST(PartialCubeTest, MaterializedBytesSumViews) {
  const SparseArray input = make_input();
  PartialCube cube = PartialCube::build(
      input, {DimSet::of({0}), DimSet::of({1})});
  EXPECT_EQ(cube.materialized_bytes(),
            static_cast<std::int64_t>((12 + 8) * sizeof(Value)));
}

TEST(PartialCubeTest, DuplicateSelectionsAreDeduplicated) {
  const SparseArray input = make_input();
  PartialCube cube = PartialCube::build(
      input, {DimSet::of({0}), DimSet::of({0})});
  EXPECT_EQ(cube.materialized_views().size(), 1u);
}

TEST(PartialCubeTest, SelectingRootRejected) {
  const SparseArray input = make_input();
  EXPECT_THROW(PartialCube::build(input, {DimSet::full(3)}), InvalidArgument);
}

TEST(PartialCubeTest, UnmaterializedDirectAccessThrows) {
  const SparseArray input = make_input();
  PartialCube cube = PartialCube::build(input, {DimSet::of({0})});
  EXPECT_THROW(cube.view(DimSet::of({1})), InvalidArgument);
}

TEST(PartialCubeTest, SharedInputIsNotCopiedAcrossGenerations) {
  // The re-plan contract (and the fix for the old by-copy retention):
  // every cube generation built from the same shared_ptr aliases ONE
  // input array, so a re-plan cycle never doubles the input footprint.
  const auto input = std::make_shared<const SparseArray>(make_input());
  const PartialCube first =
      PartialCube::build(input, {DimSet::of({0, 1})});
  const PartialCube second =
      PartialCube::build(first.input_ptr(), {DimSet::of({1, 2})});
  EXPECT_EQ(first.input_ptr().get(), input.get());
  EXPECT_EQ(second.input_ptr().get(), input.get());
  EXPECT_EQ(&first.input(), &second.input());
  // Caller + two generations share the array; nobody holds a copy.
  EXPECT_EQ(input.use_count(), 3);
}

TEST(PartialCubeTest, AdoptSharesACompleteCubeWithoutAnInput) {
  const SparseArray input = make_input();
  const auto full = std::make_shared<const CubeResult>(reference_cube(input));
  const PartialCube cube = PartialCube::adopt(full);
  EXPECT_EQ(&cube.views(), full.get());
  const DimSet root = DimSet::full(3);
  for (DimSet view : CubeLattice(input.shape().extents()).all_views()) {
    if (view == root) continue;
    EXPECT_EQ(cube.routes().route(view), view) << view.to_string();
    EXPECT_EQ(cube.materialize(view), full->view(view)) << view.to_string();
  }
  // The root view is the input, which an adopted cube does not hold.
  EXPECT_THROW(cube.input(), InvalidArgument);
  EXPECT_THROW(cube.query(root, {0, 0, 0}), InvalidArgument);
  EXPECT_THROW(cube.materialize(root), InvalidArgument);
  // A point routed to the input is rejected before any scan runs.
  std::int64_t cells = -1;
  EXPECT_THROW(cube.query_from(std::nullopt, root, {1, 2, 3}, &cells),
               InvalidArgument);
  EXPECT_THROW(cube.query_from(std::nullopt, DimSet::of({0}), {4}, &cells),
               InvalidArgument);
  EXPECT_EQ(cells, -1);
  EXPECT_THROW(PartialCube::adopt(nullptr), InvalidArgument);
}

TEST(PartialCubeTest, PeakAccountingExcludesTheSharedInput) {
  // peak_scratch_bytes-style accounting of a re-plan cycle: with the
  // input shared, the peak while both generations are alive is input +
  // the two materialized sets — NOT two inputs. Replaying the ledger
  // with the old by-copy behavior exceeds exactly by the input's bytes.
  // Both selections are children of the root, so each walk's measured
  // peak is exactly its materialized bytes.
  const auto input = std::make_shared<const SparseArray>(make_input());
  const std::int64_t input_bytes = input->bytes();
  BuildStats first_stats;
  BuildStats second_stats;
  const PartialCube first =
      PartialCube::build(input, {DimSet::of({0, 1})}, &first_stats);
  const PartialCube second = PartialCube::build(
      first.input_ptr(), {DimSet::of({1, 2})}, &second_stats);
  EXPECT_EQ(first_stats.peak_live_bytes, first.materialized_bytes());
  EXPECT_EQ(second_stats.peak_live_bytes, second.materialized_bytes());
  MemoryLedger shared_ledger;
  shared_ledger.alloc(input_bytes);  // the one shared input
  shared_ledger.alloc(first_stats.peak_live_bytes);
  shared_ledger.alloc(second_stats.peak_live_bytes);
  MemoryLedger copied_ledger;  // what by-copy retention would cost
  copied_ledger.alloc(2 * input_bytes);
  copied_ledger.alloc(first_stats.peak_live_bytes);
  copied_ledger.alloc(second_stats.peak_live_bytes);
  EXPECT_EQ(copied_ledger.peak_bytes() - shared_ledger.peak_bytes(),
            input_bytes);
}

TEST(PartialCubeTest, MaterializeMatchesFullCubeOnEveryView) {
  const SparseArray input = make_input();
  const CubeResult full = reference_cube(input);
  const CubeLattice lattice(input.shape().extents());
  PartialCube cube = PartialCube::build(
      input, {DimSet::of({0, 1}), DimSet::of({1, 2})});
  for (DimSet view : lattice.all_views()) {
    if (view == DimSet::full(3)) continue;
    std::int64_t cells = 0;
    const DenseArray array = cube.materialize(view, &cells);
    EXPECT_EQ(array, full.view(view)) << view.to_string();
    // The scan charges |ancestor| (dense route) or nnz (input route).
    if (cube.is_materialized(view)) {
      EXPECT_EQ(cells, lattice.view_cells(view));
    } else if (view.is_subset_of(DimSet::of({0, 1})) ||
               view.is_subset_of(DimSet::of({1, 2}))) {
      EXPECT_EQ(cells, query_cost(lattice, cube.materialized_views(), view));
    } else {
      EXPECT_EQ(cells, input.nnz());
    }
  }
}

TEST(PartialCubeTest, MaterializeFromValidatesTheSource) {
  const SparseArray input = make_input();
  PartialCube cube = PartialCube::build(input, {DimSet::of({0, 1})});
  // Not a superset of the requested view.
  EXPECT_THROW(cube.materialize_from(DimSet::of({0, 1}), DimSet::of({2})),
               InvalidArgument);
  // Not materialized.
  EXPECT_THROW(cube.materialize_from(DimSet::of({0, 2}), DimSet::of({0})),
               InvalidArgument);
  EXPECT_THROW(cube.query_from(DimSet::of({0, 2}), DimSet::of({0}), {3}),
               InvalidArgument);
}

TEST(PartialCubeTest, GreedySelectionBeatsWorstSelectionOnMeasuredCost) {
  // End to end, on the queries the linear cost model prices: computing
  // every view scans fewer cells under the greedy selection than under an
  // adversarial same-k selection. Point queries (every coordinate 0) are
  // measured too: under the greedy each costs exactly the model's price
  // per cell of its view, |ancestor| / |view|, and all of them cost less
  // than with nothing materialized. The model does not price a point the
  // input answers, which scans only the non-zeros in the point's region,
  // so on points the adversary's small views can measure less than the
  // greedy's (ROADMAP item 3).
  const SparseArray input = make_input(77);
  const CubeLattice lattice(input.shape().extents());
  const int k = 3;
  PartialCube greedy = PartialCube::build(
      input, select_views_greedy(lattice, k).views);
  // Adversarial: the k smallest views (near-useless as ancestors).
  std::vector<DimSet> small{DimSet(), DimSet::of({2}), DimSet::of({1})};
  PartialCube bad = PartialCube::build(input, small);
  PartialCube none = PartialCube::build(input, {});
  const auto measured_total = [&](PartialCube& cube, bool points) {
    std::int64_t total = 0;
    for (DimSet view : lattice.all_views()) {
      if (view == DimSet::full(3)) continue;
      std::int64_t cells = 0;
      if (points) {
        const std::vector<std::int64_t> coords(
            static_cast<std::size_t>(view.size()), 0);
        cube.query(view, coords, &cells);
      } else {
        cube.materialize(view, &cells);
      }
      total += cells;
    }
    return total;
  };
  EXPECT_LT(measured_total(greedy, false), measured_total(bad, false));
  std::int64_t priced_points = 0;
  for (DimSet view : lattice.all_views()) {
    if (view == DimSet::full(3)) continue;
    priced_points += query_cost(lattice, greedy.materialized_views(), view) /
                     lattice.view_cells(view);
  }
  EXPECT_EQ(measured_total(greedy, true), priced_points);
  EXPECT_LT(measured_total(greedy, true), measured_total(none, true));
}

/// Every proper view of an n-dimensional lattice.
std::vector<DimSet> every_proper_view(int n) {
  std::vector<DimSet> views;
  for (std::uint32_t mask = 0; mask + 1 < (std::uint32_t{1} << n); ++mask) {
    views.push_back(DimSet::from_mask(mask));
  }
  return views;
}

TEST(PartialCubeTest, PrunedWalkMatchesTheReferenceOnEverySelection) {
  // Shapes with extents of 1 and non-powers of two; empty, half-full and
  // full inputs; selections from empty to every proper view.
  const std::vector<std::vector<std::int64_t>> shapes{
      {1, 5, 3}, {7, 1, 4, 2}, {12, 8, 6}, {3, 5, 2, 1, 4}};
  for (const std::vector<std::int64_t>& sizes : shapes) {
    const int n = static_cast<int>(sizes.size());
    const CubeLattice lattice(sizes);
    const DimSet root = DimSet::full(n);
    const std::vector<DimSet> all = every_proper_view(n);
    Xoshiro256ss rng(static_cast<std::uint64_t>(n * 1000 + sizes[0]));
    std::vector<std::vector<DimSet>> selections{
        {}, {DimSet()}, {all[1 + rng.next_below(all.size() - 1)]}};
    std::vector<DimSet> chain;
    for (int d = n - 1; d >= 0; --d) {
      chain.push_back((chain.empty() ? root : chain.back()).without(d));
    }
    selections.push_back(chain);
    for (int i = 0; i < 5; ++i) {
      std::vector<DimSet> subset;
      for (DimSet view : all) {
        if (rng.next_below(2) == 0) subset.push_back(view);
      }
      selections.push_back(subset);
    }
    selections.push_back(all);

    for (double density : {0.0, 0.3, 1.0}) {
      SparseSpec spec;
      spec.sizes = sizes;
      spec.density = density;
      spec.seed = 17;
      const SparseArray input = generate_sparse_global(spec);
      const CubeResult expected = reference_cube(input);
      BuildStats full_stats;
      build_cube_sequential(input, &full_stats);
      for (const std::vector<DimSet>& views : selections) {
        SCOPED_TRACE(::testing::Message()
                     << "shape of " << n << " dims, first extent " << sizes[0]
                     << ", density " << density << ", " << views.size()
                     << " views");
        BuildStats stats;
        const PartialCube cube = PartialCube::build(input, views, &stats);
        std::vector<DimSet> sorted = views;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(cube.materialized_views(), sorted);
        for (DimSet view : sorted) {
          EXPECT_EQ(cube.view(view), expected.view(view)) << view.to_string();
        }
        EXPECT_EQ(stats.written_bytes, cube.materialized_bytes());
        EXPECT_LE(stats.peak_live_bytes, sequential_memory_bound(lattice));
        EXPECT_LE(stats.cells_scanned, full_stats.cells_scanned);
        if (views.empty()) {
          EXPECT_EQ(stats.cells_scanned, 0);
        }
        if (views.size() == all.size()) {
          EXPECT_EQ(stats.peak_live_bytes, full_stats.peak_live_bytes);
          EXPECT_EQ(stats.written_bytes, full_stats.written_bytes);
          EXPECT_EQ(stats.cells_scanned, full_stats.cells_scanned);
          EXPECT_EQ(stats.updates, full_stats.updates);
          EXPECT_EQ(stats.peak_scratch_bytes, full_stats.peak_scratch_bytes);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cubist
