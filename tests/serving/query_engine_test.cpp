#include "serving/query_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/error.h"
#include "core/olap_query.h"
#include "core/sequential_builder.h"
#include "core/verify.h"
#include "io/generators.h"
#include "serving/workload.h"
#include "test_util.h"

namespace cubist::serving {
namespace {

std::shared_ptr<const CubeResult> small_cube() {
  const DenseArray input = testing::random_dense({6, 5, 4}, 0.7, 11);
  return std::make_shared<const CubeResult>(build_cube_sequential(input));
}

TEST(QueryEngineTest, AnswersMatchDirectOlapCalls) {
  auto cube = small_cube();
  QueryEngine engine(cube);
  const DimSet ab = DimSet::of({0, 1});
  const DenseArray& view = cube->view(ab);

  auto sliced = engine.execute(Query::slice(ab, 1, 2));
  EXPECT_EQ(sliced->array, slice(view, 1, 2));

  auto diced = engine.execute(Query::dice(ab, {1, 0}, {4, 3}));
  EXPECT_EQ(diced->array, dice(view, {1, 0}, {4, 3}));

  auto rolled = engine.execute(Query::rollup(ab, 0, {0, 0, 1, 1, 2, 2}, 3));
  EXPECT_EQ(rolled->array, rollup(view, 0, {0, 0, 1, 1, 2, 2}, 3));

  auto top = engine.execute(Query::top_k(ab, 5));
  EXPECT_EQ(top->topk, top_k(view, 5));

  auto point = engine.execute(Query::point(ab, {3, 2}));
  EXPECT_EQ(point->scalar, cube->query(ab, {3, 2}));
}

TEST(QueryEngineTest, RepeatedQueryHitsCache) {
  QueryEngine engine(small_cube());
  const Query q = Query::slice(DimSet::of({0, 1}), 0, 1);
  auto first = engine.execute(q);
  auto second = engine.execute(q);
  EXPECT_EQ(*first, *second);
  const ServingStats stats = engine.stats();
  EXPECT_TRUE(stats.cache_enabled);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.cache.hits, 1);
  EXPECT_EQ(stats.queries, 2);
}

TEST(QueryEngineTest, PointQueriesBypassCache) {
  QueryEngine engine(small_cube());
  const Query q = Query::point(DimSet::of({0}), {2});
  engine.execute(q);
  engine.execute(q);
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0);
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.latency[static_cast<std::size_t>(QueryKind::kPoint)].count,
            2);
}

TEST(QueryEngineTest, CacheDisabledStillServes) {
  QueryEngineOptions options;
  options.cache_budget_bytes = 0;
  QueryEngine engine(small_cube(), options);
  EXPECT_FALSE(engine.cache_enabled());
  const Query q = Query::slice(DimSet::of({0, 2}), 0, 3);
  auto first = engine.execute(q);
  auto second = engine.execute(q);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(engine.stats().cache.hits, 0);
}

TEST(QueryEngineTest, BatchPreservesOrderAndMatchesSerial) {
  auto cube = small_cube();
  QueryEngine serial(cube);
  QueryEngine batched(cube);
  WorkloadGenerator workload(*cube, {});
  const std::vector<Query> batch = workload.batch(64);
  std::vector<std::shared_ptr<const QueryResult>> expected;
  expected.reserve(batch.size());
  for (const Query& q : batch) expected.push_back(serial.execute(q));
  const auto got = batched.execute_batch(batch);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(*got[i], *expected[i]) << "batch slot " << i;
  }
}

/// Rejections every engine over a {6, 5, 4} cube must raise.
void expect_rejects_invalid_queries(QueryEngine& engine) {
  // Out-of-range slice dim, bad index, non-surjective rollup, bad point.
  const DimSet ab = DimSet::of({0, 1});
  // A view outside the lattice (3-d cube has no dim 5).
  EXPECT_THROW(engine.execute(Query::slice(DimSet::of({5}), 0, 0)),
               InvalidArgument);
  EXPECT_THROW(engine.execute(Query::slice(ab, 5, 0)), InvalidArgument);
  EXPECT_THROW(engine.execute(Query::slice(ab, 0, 99)), InvalidArgument);
  EXPECT_THROW(engine.execute(Query::rollup(ab, 0, {0, 0, 0, 0, 0, 0}, 2)),
               InvalidArgument);
  EXPECT_THROW(engine.execute(Query::point(ab, {1})), InvalidArgument);
  EXPECT_THROW(engine.execute(Query::top_k(ab, -2)), InvalidArgument);
}

TEST(QueryEngineTest, RejectsInvalidQueries) {
  QueryEngine engine(small_cube());
  expect_rejects_invalid_queries(engine);
  EXPECT_THROW(QueryEngine(std::shared_ptr<const CubeResult>()),
               InvalidArgument);
  EXPECT_THROW(QueryEngine(std::shared_ptr<const PartialCube>()),
               InvalidArgument);
}

TEST(QueryEngineTest, PartialCubeEngineRejectsInvalidQueries) {
  // The same rejections with {0,1} served directly and from the input.
  // The out-of-lattice view must be rejected before its frequency
  // counter is touched: the counters have one slot per lattice view. A
  // rejected query counts for no view, so it never steers replan().
  SparseSpec spec;
  spec.sizes = {6, 5, 4};
  spec.density = 0.5;
  spec.seed = 11;
  const auto input =
      std::make_shared<const SparseArray>(generate_sparse_global(spec));
  const CubeResult reference = reference_cube(*input);
  const DimSet ab = DimSet::of({0, 1});
  const Query valid = Query::slice(ab, 0, 2);
  for (const std::vector<DimSet>& views :
       {std::vector<DimSet>{ab}, std::vector<DimSet>{}}) {
    QueryEngine engine(
        std::make_shared<const PartialCube>(PartialCube::build(input, views)));
    expect_rejects_invalid_queries(engine);
    EXPECT_EQ(engine.view_frequencies(), std::vector<std::int64_t>(8, 0));

    // A mixed batch throws, yet answers and counts its valid query.
    EXPECT_THROW(engine.execute_batch({valid, Query::point(ab, {6, 0})}),
                 InvalidArgument);
    EXPECT_EQ(engine.view_frequencies()[ab.mask()], 1);
    EXPECT_EQ(engine.execute(valid)->array, slice(reference.view(ab), 0, 2));
  }
}

TEST(QueryEngineTest, RejectsMalformedPoints) {
  // Extents {6, 5, 4}: each coordinate is checked against its dimension,
  // not against the view's buffer ({2, 7} would land inside it).
  QueryEngine engine(small_cube());
  const DimSet ab = DimSet::of({0, 1});
  for (const std::vector<std::int64_t>& coords :
       std::vector<std::vector<std::int64_t>>{
           {6, 0}, {0, 5}, {-1, 0}, {0, -1}, {3}, {1, 2, 3}, {5, 10},
           {2, 7}}) {
    EXPECT_THROW(engine.execute(Query::point(ab, coords)), InvalidArgument)
        << coords.size() << " coords";
  }
}

TEST(QueryEngineTest, LatencyTelemetryCountsPerClassAndStaysBounded) {
  auto cube = small_cube();
  QueryEngine engine(cube);
  const DimSet bc = DimSet::of({1, 2});
  for (int i = 0; i < 5; ++i) {
    engine.execute(Query::slice(bc, 0, i % 5));
    engine.execute(Query::top_k(bc, 3));
  }
  engine.execute(Query::point(bc, {0, 0}));
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.latency[static_cast<std::size_t>(QueryKind::kSlice)].count,
            5);
  EXPECT_EQ(stats.latency[static_cast<std::size_t>(QueryKind::kTopK)].count,
            5);
  EXPECT_EQ(stats.latency[static_cast<std::size_t>(QueryKind::kPoint)].count,
            1);
  const auto& slice_lat =
      stats.latency[static_cast<std::size_t>(QueryKind::kSlice)];
  EXPECT_GE(slice_lat.p99_us, slice_lat.p50_us);
  EXPECT_GE(slice_lat.p999_us, slice_lat.p99_us);
  // The telemetry's memory is bounded by the sketch's static bound.
  EXPECT_GT(stats.sketch_memory_bound_bytes, 0);
  EXPECT_LE(stats.sketch_memory_bytes, stats.sketch_memory_bound_bytes);
}

TEST(QueryEngineTest, CacheKeyCanonicalization) {
  // Equal queries share a key; different operands never collide.
  const DimSet ab = DimSet::of({0, 1});
  EXPECT_EQ(Query::slice(ab, 0, 1).cache_key(),
            Query::slice(ab, 0, 1).cache_key());
  std::map<std::string, int> keys;
  ++keys[Query::slice(ab, 0, 1).cache_key()];
  ++keys[Query::slice(ab, 1, 0).cache_key()];
  ++keys[Query::slice(DimSet::of({0, 2}), 0, 1).cache_key()];
  ++keys[Query::top_k(ab, 1).cache_key()];
  ++keys[Query::dice(ab, {0, 1}, {1, 2}).cache_key()];
  ++keys[Query::rollup(ab, 0, {0, 0, 1, 1, 1, 1}, 2).cache_key()];
  ++keys[Query::point(ab, {0, 1}).cache_key()];
  EXPECT_EQ(keys.size(), 7u);
  for (const auto& [key, count] : keys) EXPECT_EQ(count, 1) << key;
}

TEST(WorkloadGeneratorTest, DeterministicAndExecutable) {
  auto cube = small_cube();
  WorkloadSpec spec;
  spec.seed = 9;
  WorkloadGenerator a(*cube, spec);
  WorkloadGenerator b(*cube, spec);
  const auto batch_a = a.batch(100);
  const auto batch_b = b.batch(100);
  EXPECT_EQ(batch_a, batch_b);
  // Every universe descriptor must execute cleanly.
  QueryEngine engine(cube);
  for (const Query& q : a.universe()) {
    EXPECT_NO_THROW(engine.execute(q)) << q.cache_key();
  }
}

TEST(WorkloadGeneratorTest, ZipfianSkewsTowardHotHead) {
  auto cube = small_cube();
  WorkloadSpec uniform;
  uniform.max_universe = 64;
  WorkloadSpec zipf = uniform;
  zipf.skew = WorkloadSpec::Skew::kZipfian;
  zipf.zipf_exponent = 1.2;
  WorkloadGenerator uniform_gen(*cube, uniform);
  WorkloadGenerator zipf_gen(*cube, zipf);
  ASSERT_EQ(uniform_gen.universe().size(), zipf_gen.universe().size());
  const Query hottest = zipf_gen.universe().front();
  int zipf_hits = 0;
  int uniform_hits = 0;
  for (int i = 0; i < 4000; ++i) {
    if (zipf_gen.next() == hottest) ++zipf_hits;
    if (uniform_gen.next() == hottest) ++uniform_hits;
  }
  // Rank 0 under s=1.2 over 64 items carries ~25% of the mass; uniform
  // gives ~1.6%. A 4x separation is far outside sampling noise.
  EXPECT_GT(zipf_hits, 4 * uniform_hits);
}

}  // namespace
}  // namespace cubist::serving
