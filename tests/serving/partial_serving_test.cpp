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
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/olap_query.h"
#include "core/sequential_builder.h"
#include "core/verify.h"
#include "core/view_selection.h"
#include "io/generators.h"
#include "lattice/cube_lattice.h"
#include "obs/drift.h"
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

/// Queries over `view` (extents `extents`, at least one), each wrong in
/// exactly one way: a dimension outside the view, an index or range
/// outside an extent, an operand count off by one, a bad rollup mapping,
/// a negative top-k count.
std::vector<Query> malformed_queries(DimSet view,
                                     const std::vector<std::int64_t>& extents) {
  const int m = static_cast<int>(extents.size());
  const std::vector<std::int64_t> lo(extents.size(), 0);
  const std::vector<std::int64_t>& hi = extents;
  std::vector<Query> out;
  out.push_back(Query::slice(view, m, 0));
  out.push_back(Query::slice(view, -1, 0));
  out.push_back(Query::slice(view, 0, extents[0]));
  out.push_back(Query::slice(view, m - 1, -1));

  out.push_back(Query::dice(view, {lo.begin() + 1, lo.end()},
                            {hi.begin() + 1, hi.end()}));
  std::vector<std::int64_t> lo_extra = lo;
  std::vector<std::int64_t> hi_extra = hi;
  lo_extra.push_back(0);
  hi_extra.push_back(1);
  out.push_back(Query::dice(view, lo_extra, hi_extra));
  std::vector<std::int64_t> past = hi;
  past[static_cast<std::size_t>(m - 1)] += 1;
  out.push_back(Query::dice(view, lo, past));
  std::vector<std::int64_t> empty = hi;
  empty[0] = 0;
  out.push_back(Query::dice(view, lo, empty));
  std::vector<std::int64_t> negative = lo;
  negative[0] = -1;
  out.push_back(Query::dice(view, negative, hi));

  // Halving dimension 0 is a valid rollup to `coarse` cells; each of the
  // five below breaks it once.
  std::vector<std::int64_t> halve(static_cast<std::size_t>(extents[0]));
  for (std::size_t i = 0; i < halve.size(); ++i) {
    halve[i] = static_cast<std::int64_t>(i / 2);
  }
  const std::int64_t coarse = (extents[0] + 1) / 2;
  out.push_back(Query::rollup(view, m, halve, coarse));
  out.push_back(
      Query::rollup(view, 0, {halve.begin(), halve.end() - 1}, coarse));
  out.push_back(Query::rollup(view, 0, halve, coarse - 1));  // target past
  out.push_back(Query::rollup(view, 0, halve, coarse + 1));  // not onto
  out.push_back(Query::rollup(view, 0, halve, 0));

  out.push_back(Query::top_k(view, -1));

  out.push_back(Query::point(view, {lo.begin() + 1, lo.end()}));
  out.push_back(Query::point(view, lo_extra));
  out.push_back(Query::point(view, {hi.begin(), hi.end()}));
  return out;
}

TEST(PartialServingTest, MalformedQueriesInterleavedOnEveryRoute) {
  // Every kind of query, malformed on the direct, ancestor and input
  // routes and outside the lattice, interleaved with a generated valid
  // stream: each is rejected through execute and through execute_batch,
  // and neither the answers after it nor the view-frequency counters or
  // the query-cost gauge show that it was ever submitted.
  const std::vector<std::int64_t> sizes{12, 8, 6, 4};
  const auto input = make_input(sizes);
  const CubeResult full = reference_cube(*input);
  const DimSet ab = DimSet::of({0, 1});
  const auto cube = std::make_shared<const PartialCube>(
      PartialCube::build(input, {ab, DimSet::of({0, 1, 2})}));

  std::vector<Query> malformed;
  // Direct, ancestor ({0,1} and {0,1,2}), and input routes.
  for (DimSet view : {ab, DimSet::of({0}), DimSet::of({1, 2}),
                      DimSet::of({3}), DimSet::of({0, 3})}) {
    std::vector<std::int64_t> extents;
    for (int d : view.dims()) extents.push_back(sizes[static_cast<std::size_t>(d)]);
    for (Query& query : malformed_queries(view, extents)) {
      malformed.push_back(std::move(query));
    }
  }
  // Well-formed operands on views outside the 4-D lattice.
  for (DimSet outside : {DimSet::of({4}), DimSet::of({0, 5})}) {
    malformed.push_back(Query::top_k(outside, 2));
    malformed.push_back(Query::slice(outside, 0, 0));
    malformed.push_back(
        Query::point(outside, std::vector<std::int64_t>(
                                  static_cast<std::size_t>(outside.size()), 0)));
  }

  WorkloadSpec spec;
  spec.seed = 23;
  WorkloadGenerator workload(sizes, spec);
  constexpr std::size_t kValidPerMalformed = 3;
  const std::vector<Query> valid =
      workload.batch(static_cast<int>(kValidPerMalformed * malformed.size()));
  std::vector<QueryResult> expected;
  for (const Query& query : valid) expected.push_back(answer(full, query));
  // Cache misses the query-cost gauge samples: ancestor-routed non-points.
  const auto sampled = [&](const Query& query) {
    const std::optional<DimSet> route = cube->routes().route(query.view);
    return query.kind != QueryKind::kPoint && route && *route != query.view;
  };

  for (int pool_size : {1, 4}) {
    for (bool cache_on : {false, true}) {
      ThreadPool pool(pool_size);
      obs::Registry registry;
      QueryEngineOptions options;
      options.pool = &pool;
      options.max_workers = pool_size;
      options.cache_budget_bytes = cache_on ? (std::int64_t{8} << 20) : 0;
      options.registry = &registry;
      QueryEngine engine(cube, options);
      const obs::DriftGauge& gauge = obs::query_cost_vs_cells_gauge(registry);
      std::vector<std::int64_t> frequencies(std::size_t{1} << sizes.size(), 0);
      std::int64_t samples = 0;
      std::set<std::string> cached;
      const auto count_valid = [&](const Query& query) {
        ++frequencies[query.view.mask()];
        const bool miss = !cache_on || cached.insert(query.cache_key()).second;
        if (miss && sampled(query)) ++samples;
      };
      const auto check_counters = [&](const Query& bad) {
        EXPECT_EQ(engine.view_frequencies(), frequencies) << bad.cache_key();
        EXPECT_EQ(gauge.summary().samples, samples) << bad.cache_key();
      };

      for (std::size_t b = 0; b < malformed.size(); ++b) {
        const Query& bad = malformed[b];
        const std::size_t first = b * kValidPerMalformed;
        std::vector<Query> batch(valid.begin() + static_cast<long>(first),
                                 valid.begin() + static_cast<long>(
                                                     first + kValidPerMalformed));
        // One query at a time: the valid ones answer like the oracle, the
        // malformed one throws and counts nowhere.
        for (std::size_t i = first; i < first + kValidPerMalformed; ++i) {
          ASSERT_EQ(*engine.execute(valid[i]), expected[i])
              << "pool=" << pool_size << " cache=" << cache_on
              << " key=" << valid[i].cache_key();
          count_valid(valid[i]);
        }
        EXPECT_THROW(engine.execute(bad), InvalidArgument) << bad.cache_key();
        check_counters(bad);
        // The same queries as one batch, the malformed one last so every
        // pool size runs the valid ones: the batch throws, the valid ones
        // count (a cached answer samples nothing), the malformed one not.
        batch.push_back(bad);
        EXPECT_THROW(engine.execute_batch(batch), InvalidArgument)
            << bad.cache_key();
        for (std::size_t i = first; i < first + kValidPerMalformed; ++i) {
          count_valid(valid[i]);
        }
        check_counters(bad);
      }
      // The whole valid stream after every rejection, as one batch.
      const auto results = engine.execute_batch(valid);
      ASSERT_EQ(results.size(), expected.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(*results[i], expected[i])
            << "pool=" << pool_size << " cache=" << cache_on << " i=" << i;
      }
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
