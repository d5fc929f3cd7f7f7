// Partial-materialization serving: the equivalence matrix (any selected
// subset, any routing path, any pool size — bit-identical to answers
// computed from reference_cube by the core OLAP operators, outside the
// engine), exact agreement between query_cost() and measured
// cells_scanned, workload feedback counters, replan()'s atomic
// generation swap under concurrent queries, and an adopted full cube.
// The TSan CI preset runs the swap test with real concurrency, proving
// readers never synchronize with re-planners beyond the generation
// pointer.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/olap_query.h"
#include "core/sequential_builder.h"
#include "core/verify.h"
#include "core/view_selection.h"
#include "io/generators.h"
#include "lattice/cube_lattice.h"
#include "serving/query_engine.h"
#include "serving/workload.h"

namespace cubist::serving {
namespace {

std::shared_ptr<const SparseArray> make_input(
    std::vector<std::int64_t> sizes, double density = 0.3,
    std::uint64_t seed = 99) {
  SparseSpec spec;
  spec.sizes = std::move(sizes);
  spec.density = density;
  spec.seed = seed;
  return std::make_shared<const SparseArray>(generate_sparse_global(spec));
}

/// The oracle: answers `query` from a complete cube with the core OLAP
/// operators, sharing no routing or projection code with the engine.
QueryResult answer(const CubeResult& cube, const Query& query) {
  QueryResult result;
  result.kind = query.kind;
  switch (query.kind) {
    case QueryKind::kPoint:
      result.scalar = cube.query(query.view, query.coords);
      break;
    case QueryKind::kSlice:
      result.array = slice(cube.view(query.view), query.dim, query.index);
      break;
    case QueryKind::kDice:
      result.array = dice(cube.view(query.view), query.lo, query.hi);
      break;
    case QueryKind::kRollup:
      result.array = rollup(cube.view(query.view), query.dim, query.mapping,
                            query.coarse_extent);
      break;
    case QueryKind::kTopK:
      result.topk = top_k(cube.view(query.view), query.k);
      break;
  }
  return result;
}

std::vector<QueryResult> run_partial_cell(
    const std::shared_ptr<const PartialCube>& cube,
    const std::vector<Query>& batch, int pool_size, bool cache_on) {
  ThreadPool pool(pool_size);
  QueryEngineOptions options;
  options.pool = &pool;
  options.max_workers = pool_size;
  options.cache_budget_bytes = cache_on ? (std::int64_t{8} << 20) : 0;
  QueryEngine engine(cube, options);
  const auto shared = engine.execute_batch(batch);
  std::vector<QueryResult> results;
  results.reserve(shared.size());
  for (const auto& r : shared) results.push_back(*r);
  return results;
}

TEST(PartialServingTest, EquivalenceMatrixAcrossSelectionsAndPools) {
  const auto input = make_input({8, 6, 5});
  const CubeLattice lattice(input->shape().extents());
  const CubeResult full = reference_cube(*input);

  WorkloadSpec spec;
  spec.skew = WorkloadSpec::Skew::kZipfian;
  spec.zipf_exponent = 1.1;
  spec.seed = 7;
  WorkloadGenerator workload(input->shape().extents(), spec);
  const std::vector<Query> batch = workload.batch(400);

  std::vector<QueryResult> baseline;
  for (const Query& query : batch) baseline.push_back(answer(full, query));

  std::vector<std::vector<DimSet>> selections;
  selections.push_back({});  // everything routes to the input
  selections.push_back(select_views_greedy(lattice, 2).views);
  selections.push_back(
      select_views_weighted(lattice, /*budget_bytes=*/64 * 8,
                            std::vector<std::int64_t>(
                                static_cast<std::size_t>(lattice.num_views()),
                                1))
          .views);
  std::vector<DimSet> all_proper;
  for (DimSet view : lattice.all_views()) {
    if (view != DimSet::full(lattice.ndims())) all_proper.push_back(view);
  }
  selections.push_back(all_proper);

  for (const std::vector<DimSet>& views : selections) {
    const auto cube = std::make_shared<const PartialCube>(
        PartialCube::build(input, views));
    for (int pool_size : {1, 2, 8}) {
      for (bool cache_on : {false, true}) {
        const std::vector<QueryResult> cell =
            run_partial_cell(cube, batch, pool_size, cache_on);
        ASSERT_EQ(cell.size(), baseline.size());
        for (std::size_t i = 0; i < cell.size(); ++i) {
          ASSERT_EQ(cell[i], baseline[i])
              << "views=" << views.size() << " pool=" << pool_size
              << " cache=" << cache_on << " slot=" << i
              << " key=" << batch[i].cache_key();
        }
      }
    }
  }
}

TEST(PartialServingTest, MeasuredCellsMatchQueryCostOnEveryView4D) {
  // Satellite contract: the linear cost model the greedy optimizes is
  // what serving actually does. Materializing every 3-dim view covers
  // the whole 4-D lattice, so every query routes to a dense ancestor and
  // measured cells must equal query_cost() EXACTLY on all 16 views.
  const auto input = make_input({4, 3, 2, 3}, 0.4, 17);
  const CubeLattice lattice(input->shape().extents());
  const DimSet root = DimSet::full(4);
  std::vector<DimSet> views;
  for (DimSet view : lattice.all_views()) {
    if (view != root && view.size() == 3) views.push_back(view);
  }
  const auto cube =
      std::make_shared<const PartialCube>(PartialCube::build(input, views));
  ThreadPool pool(1);
  QueryEngineOptions options;
  options.pool = &pool;
  options.cache_budget_bytes = 0;  // every query must do its scan
  QueryEngine engine(cube, options);
  std::int64_t cells_before = 0;
  for (DimSet view : lattice.all_views()) {
    if (view == root) continue;
    engine.execute(Query::top_k(view, 4));
    const std::int64_t cells_after = engine.stats().cells_scanned;
    EXPECT_EQ(cells_after - cells_before,
              query_cost(lattice, views, view))
        << view.to_string();
    cells_before = cells_after;
  }
  // Uncovered views fall through to the input, whose measured price is
  // nnz — the data-aware refinement of the model's dense root charge.
  const auto uncovered = std::make_shared<const PartialCube>(
      PartialCube::build(input, {DimSet::of({3})}));
  QueryEngine fallback(uncovered, options);
  fallback.execute(Query::top_k(DimSet::of({0, 1}), 4));
  EXPECT_EQ(fallback.stats().cells_scanned, input->nnz());
  const ServingStats stats = fallback.stats();
  EXPECT_EQ(stats.routed_input, 1);
}

TEST(PartialServingTest, StatsRecordRoutingAndPerClassCells) {
  const auto input = make_input({6, 5, 4});
  const std::vector<DimSet> views{DimSet::of({0, 1})};
  const auto cube =
      std::make_shared<const PartialCube>(PartialCube::build(input, views));
  ThreadPool pool(1);
  QueryEngineOptions options;
  options.pool = &pool;
  options.cache_budget_bytes = 0;
  QueryEngine engine(cube, options);

  engine.execute(Query::top_k(DimSet::of({0, 1}), 3));  // direct
  engine.execute(Query::top_k(DimSet::of({0}), 3));     // ancestor {0,1}
  engine.execute(Query::top_k(DimSet::of({2}), 3));     // input
  engine.execute(Query::point(DimSet::of({0, 1}), {2, 2}));  // direct point

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 4);
  EXPECT_EQ(stats.routed_direct, 2);
  EXPECT_EQ(stats.routed_ancestor, 1);
  EXPECT_EQ(stats.routed_input, 1);
  const auto topk_cells = stats.class_cells_scanned[static_cast<std::size_t>(
      QueryKind::kTopK)];
  EXPECT_EQ(topk_cells, 30 + 30 + input->nnz());
  EXPECT_EQ(stats.class_cells_scanned[static_cast<std::size_t>(
                QueryKind::kPoint)],
            1);
  EXPECT_EQ(stats.cells_scanned, topk_cells + 1);
}

TEST(PartialServingTest, FrequencyCountersTrackTheStream) {
  const auto input = make_input({6, 5, 4});
  const auto cube = std::make_shared<const PartialCube>(
      PartialCube::build(input, {DimSet::of({0, 1})}));
  ThreadPool pool(1);
  QueryEngineOptions options;
  options.pool = &pool;
  QueryEngine engine(cube, options);
  for (int i = 0; i < 5; ++i) engine.execute(Query::top_k(DimSet::of({0}), 2));
  for (int i = 0; i < 3; ++i) {
    engine.execute(Query::top_k(DimSet::of({1, 2}), 2));
  }
  const std::vector<std::int64_t> freq = engine.view_frequencies();
  EXPECT_EQ(freq[DimSet::of({0}).mask()], 5);
  EXPECT_EQ(freq[DimSet::of({1, 2}).mask()], 3);
  EXPECT_EQ(freq[DimSet::of({0, 1}).mask()], 0);
}

TEST(PartialServingTest, ReplanMaterializesTheObservedHotViews) {
  const auto input = make_input({8, 6, 5});
  const CubeLattice lattice(input->shape().extents());
  const auto cube =
      std::make_shared<const PartialCube>(PartialCube::build(input, {}));
  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  options.max_workers = 2;
  QueryEngine engine(cube, options);

  // Hammer {1,2}; sprinkle {0}.
  for (int i = 0; i < 50; ++i) engine.execute(Query::top_k(DimSet::of({1, 2}), 3));
  for (int i = 0; i < 2; ++i) engine.execute(Query::top_k(DimSet::of({0}), 3));

  const std::int64_t budget =
      lattice.view_cells(DimSet::of({1, 2})) * 8 + 8;
  const QueryEngine::ReplanReport report = engine.replan(budget);
  EXPECT_LE(report.certified_bytes, budget);
  EXPECT_LE(report.materialized_bytes, budget);
  EXPECT_EQ(report.materialized_bytes, report.certified_bytes);
  ASSERT_FALSE(report.views.empty());
  EXPECT_EQ(report.views.front(), DimSet::of({1, 2}));
  EXPECT_TRUE(engine.generation()->is_materialized(DimSet::of({1, 2})));
  // The hot view now serves directly.
  const ServingStats before = engine.stats();
  engine.execute(Query::top_k(DimSet::of({1, 2}), 3));
  const ServingStats after = engine.stats();
  EXPECT_EQ(after.routed_direct - before.routed_direct, 1);
}

TEST(PartialServingTest, ReplanSwapsSnapshotsUnderConcurrentQueries) {
  // Readers pin a generation; replan() swaps underneath. Results must
  // stay bit-identical to the reference-cube oracle throughout — no torn
  // reads, no stale-but-wrong answers. TSan verifies the memory orders.
  const auto input = make_input({8, 6, 5});
  const CubeLattice lattice(input->shape().extents());

  WorkloadSpec spec;
  spec.skew = WorkloadSpec::Skew::kZipfian;
  spec.zipf_exponent = 1.2;
  spec.seed = 11;
  WorkloadGenerator workload(input->shape().extents(), spec);
  const std::vector<Query> batch = workload.batch(300);

  // Oracle answers, computed once outside the engine.
  const CubeResult full = reference_cube(*input);
  std::vector<QueryResult> expected;
  for (const Query& query : batch) expected.push_back(answer(full, query));

  const auto cube = std::make_shared<const PartialCube>(
      PartialCube::build(input, select_views_greedy(lattice, 2).views));
  ThreadPool pool(4);
  QueryEngineOptions options;
  options.pool = &pool;
  options.max_workers = 4;
  options.cache_budget_bytes = std::int64_t{4} << 20;
  QueryEngine engine(cube, options);

  std::thread replanner([&] {
    const std::int64_t full_bytes = selection_storage_cells(
        lattice, [&] {
          std::vector<DimSet> proper;
          for (DimSet view : lattice.all_views()) {
            if (view != DimSet::full(lattice.ndims())) {
              proper.push_back(view);
            }
          }
          return proper;
        }()) * 8;
    for (int round = 0; round < 4; ++round) {
      const QueryEngine::ReplanReport report =
          engine.replan(full_bytes / (round + 2));
      EXPECT_LE(report.certified_bytes, full_bytes / (round + 2));
    }
  });
  // A failed ASSERT returns from the lambda only, so the replanner is
  // still joined instead of destroyed joinable (which would abort).
  const auto serve_rounds = [&] {
    for (int round = 0; round < 6; ++round) {
      const auto results = engine.execute_batch(batch);
      ASSERT_EQ(results.size(), batch.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(*results[i], expected[i]) << "round=" << round << " i=" << i;
      }
    }
  };
  serve_rounds();
  replanner.join();
}

TEST(PartialServingTest, ReplanWithZeroBudgetServesEverythingFromInput) {
  const auto input = make_input({6, 5, 4});
  const auto cube = std::make_shared<const PartialCube>(
      PartialCube::build(input, {DimSet::of({0, 1})}));
  ThreadPool pool(1);
  QueryEngineOptions options;
  options.pool = &pool;
  options.cache_budget_bytes = 0;
  QueryEngine engine(cube, options);
  engine.execute(Query::top_k(DimSet::of({0}), 2));
  const QueryEngine::ReplanReport report = engine.replan(0);
  EXPECT_TRUE(report.views.empty());
  EXPECT_EQ(report.materialized_bytes, 0);
  const CubeResult full = reference_cube(*input);
  const auto result = engine.execute(Query::top_k(DimSet::of({0}), 2));
  EXPECT_EQ(result->topk, top_k(full.view(DimSet::of({0})), 2));
  EXPECT_EQ(engine.stats().routed_input, 1);
}

TEST(PartialServingTest, EveryRouteRejectsMalformedPoints) {
  // Dimension 1 has extent 8, so {5, 10} is outside {0,1} although its
  // row-major offset (50) lies inside the view's 96 cells: each
  // coordinate must be checked against its own extent, on every route.
  const auto input = make_input({12, 8, 6, 4});
  const DimSet ab = DimSet::of({0, 1});
  const DimSet abc = DimSet::of({0, 1, 2});
  const std::vector<std::vector<std::int64_t>> malformed{
      {12, 0}, {0, 8}, {-1, 0}, {0, -1}, {3}, {1, 2, 3}, {5, 10}};
  const PartialCube cube = PartialCube::build(input, {ab, abc});
  for (const std::vector<std::int64_t>& coords : malformed) {
    for (std::optional<DimSet> from :
         {std::optional<DimSet>(ab), std::optional<DimSet>(abc),
          std::optional<DimSet>()}) {
      EXPECT_THROW(cube.query_from(from, ab, coords), InvalidArgument)
          << coords.size() << " coords";
    }
  }
  // The partial engine, with {0,1} served directly, from {0,1,2}, and
  // from the input.
  for (const std::vector<DimSet>& views :
       {std::vector<DimSet>{ab}, std::vector<DimSet>{abc},
        std::vector<DimSet>{}}) {
    QueryEngine engine(
        std::make_shared<const PartialCube>(PartialCube::build(input, views)));
    for (const std::vector<std::int64_t>& coords : malformed) {
      EXPECT_THROW(engine.execute(Query::point(ab, coords)), InvalidArgument)
          << views.size() << " views, " << coords.size() << " coords";
    }
  }
}

TEST(PartialServingTest, AdoptedFullCubeServesEveryProperViewDirectly) {
  const auto input = make_input({6, 5, 4});
  const CubeLattice lattice(input->shape().extents());
  const DimSet root = DimSet::full(3);
  auto full = std::make_shared<const CubeResult>(build_cube_sequential(*input));
  QueryEngine engine(full);
  for (DimSet view : lattice.all_views()) {
    if (view == root) continue;
    engine.execute(Query::top_k(view, 2));
    engine.execute(Query::top_k(view, 3));
    // The engine serves the cube it was given; nothing was copied.
    EXPECT_EQ(&engine.snapshot().view(view), &full->view(view))
        << view.to_string();
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.routed_direct, 14);
  EXPECT_EQ(stats.routed_ancestor + stats.routed_input, 0);
  const std::vector<std::int64_t> freq = engine.view_frequencies();
  for (DimSet view : lattice.all_views()) {
    EXPECT_EQ(freq[view.mask()], view == root ? 0 : 2) << view.to_string();
  }

  // No input: nothing to re-plan from and no root view to answer.
  EXPECT_THROW(engine.replan(1 << 20), InvalidArgument);
  EXPECT_THROW(engine.execute(Query::top_k(root, 2)), InvalidArgument);
  EXPECT_THROW(engine.execute(Query::point(root, {0, 0, 0})),
               InvalidArgument);
  const DimSet ab = DimSet::of({0, 1});
  EXPECT_EQ(engine.execute(Query::point(ab, {2, 3}))->scalar,
            full->query(ab, {2, 3}));
  EXPECT_EQ(engine.generation()->views().num_views(), 7u);

  // A cube missing a proper view is not adopted: projecting it from an
  // ancestor would sum, which is wrong for a MIN or MAX cube.
  CubeResult partial = build_cube_sequential(*input);
  partial.take(DimSet::of({2}));
  EXPECT_THROW(
      PartialCube::adopt(std::make_shared<const CubeResult>(std::move(partial))),
      InvalidArgument);
}

}  // namespace
}  // namespace cubist::serving
