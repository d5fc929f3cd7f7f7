// The canonical drift gauges: their registration, and their live feeds.
// No switch turns the feeds on: a parallel build, each Comm::reduce inside
// it and each served query record as they run.
#include "obs/drift.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/parallel_driver.h"
#include "core/partial_cube.h"
#include "io/generators.h"
#include "serving/query_engine.h"

namespace cubist::obs {
namespace {

/// What one p = 4 build added to a global gauge.
struct GaugeDelta {
  std::int64_t samples = 0;
  double observed = 0.0;
  double model = 0.0;

  double ratio() const { return observed / model; }
};

GaugeDelta delta(const DriftSummary& before, const DriftSummary& after) {
  return {after.samples - before.samples,
          after.observed_sum - before.observed_sum,
          after.model_sum - before.model_sum};
}

/// Builds a 32^4 cube at `density` (5% unless given) on the (2,2,1,1)
/// grid of four ranks and returns what the build added to the global
/// reduce and Lemma-1 gauges, in that order.
std::pair<GaugeDelta, GaugeDelta> build_and_measure(
    const ParallelOptions& options, double density = 0.05) {
  const std::vector<std::int64_t> sizes{32, 32, 32, 32};
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = density;
  spec.seed = 5;
  const DriftSummary reduce_before = reduce_clock_vs_sim_gauge().summary();
  const DriftSummary wire_before = wire_vs_lemma1_gauge().summary();
  run_parallel_cube(
      sizes, {1, 1, 0, 0}, CostModel{},
      [&spec](int, const BlockRange& block) {
        return generate_sparse_block(spec, block);
      },
      /*collect_result=*/false, options);
  return {delta(reduce_before, reduce_clock_vs_sim_gauge().summary()),
          delta(wire_before, wire_vs_lemma1_gauge().summary())};
}

TEST(DriftTest, EveryReduceFeedsTheReduceGauge) {
  // With the codec off the tuner's payload estimates are the payloads,
  // so each member's sample is exact and so is the build's ratio. (No
  // test before this one in its binary runs a reduce, so the global
  // sums start equal.)
  ParallelOptions raw;
  raw.reduce.encode_wire = false;
  const GaugeDelta exact = build_and_measure(raw).first;
  EXPECT_GT(exact.samples, 0);
  EXPECT_GT(exact.observed, 0.0);
  EXPECT_EQ(exact.observed, exact.model);

  // The codec on: the dense estimates are guesses, but good ones on these
  // dense partial views.
  const GaugeDelta encoded = build_and_measure(ParallelOptions{}).first;
  EXPECT_EQ(encoded.samples, exact.samples);
  EXPECT_GE(encoded.ratio(), kReduceClockVsSimMin);
  EXPECT_LE(encoded.ratio(), kReduceClockVsSimMax);

  // On a 1% input the partial aggregates are sparse too: the codec
  // run-skips most of their cells, so the dense estimates price its
  // reduces far too dear, and the gauge says so.
  const GaugeDelta sparse = build_and_measure(ParallelOptions{}, 0.01).first;
  EXPECT_EQ(sparse.samples, exact.samples);
  EXPECT_LT(sparse.ratio(), kReduceClockVsSimMin);
}

TEST(DriftTest, EveryBuildFeedsTheLemma1Gauge) {
  const GaugeDelta wire = build_and_measure(ParallelOptions{}).second;
  EXPECT_GT(wire.samples, 0);
  EXPECT_GT(wire.ratio(), kWireVsLemma1Min);
  EXPECT_LE(wire.ratio(), kWireVsLemma1Max);
}

TEST(DriftTest, AncestorRoutedMissesFeedTheQueryGauge) {
  SparseSpec spec;
  spec.sizes = {6, 5, 4};
  spec.density = 0.3;
  spec.seed = 3;
  const auto input =
      std::make_shared<const SparseArray>(generate_sparse_global(spec));
  Registry registry;
  serving::QueryEngineOptions options;
  options.registry = &registry;
  serving::QueryEngine engine(
      std::make_shared<const PartialCube>(
          PartialCube::build(input, {DimSet::of({0, 1})})),
      options);
  const DriftGauge& gauge = query_cost_vs_cells_gauge(registry);
  const auto samples = [&gauge] { return gauge.summary().samples; };
  using serving::Query;

  engine.execute(Query::top_k(DimSet::of({0}), 2));  // ancestor miss
  EXPECT_EQ(samples(), 1);
  engine.execute(Query::top_k(DimSet::of({0}), 2));  // cache hit
  engine.execute(Query::point(DimSet::of({0}), {1}));  // ancestor point
  engine.execute(Query::top_k(DimSet::of({0, 1}), 2));  // direct
  engine.execute(Query::top_k(DimSet::of({2}), 2));     // input
  EXPECT_EQ(samples(), 1);
  engine.execute(Query::slice(DimSet::of({1}), 0, 3));  // ancestor miss
  EXPECT_EQ(samples(), 2);
  // Rejected after its ancestor was projected: no answer, no sample.
  EXPECT_THROW(engine.execute(Query::slice(DimSet::of({1}), 0, 5)),
               InvalidArgument);
  EXPECT_EQ(samples(), 2);
  EXPECT_DOUBLE_EQ(gauge.summary().ratio, 1.0);
}

TEST(DriftTest, CanonicalGaugesRegisterWithStandardTolerances) {
  Registry registry;
  DriftGauge& wire = wire_vs_lemma1_gauge(registry);
  DriftGauge& reduce = reduce_clock_vs_sim_gauge(registry);
  DriftGauge& query = query_cost_vs_cells_gauge(registry);
  // Re-registration returns the same instruments.
  EXPECT_EQ(&wire, &wire_vs_lemma1_gauge(registry));
  EXPECT_EQ(&reduce, &reduce_clock_vs_sim_gauge(registry));
  EXPECT_EQ(&query, &query_cost_vs_cells_gauge(registry));

  wire.record(50.0, 100.0);
  reduce.record(1.2, 1.0);
  query.record(100.0, 100.0);
  EXPECT_DOUBLE_EQ(wire.summary().tolerance_min, kWireVsLemma1Min);
  EXPECT_DOUBLE_EQ(wire.summary().tolerance_max, kWireVsLemma1Max);
  EXPECT_DOUBLE_EQ(reduce.summary().tolerance_min, kReduceClockVsSimMin);
  EXPECT_DOUBLE_EQ(reduce.summary().tolerance_max, kReduceClockVsSimMax);
  EXPECT_DOUBLE_EQ(query.summary().tolerance_min, kQueryCostVsCellsMin);
  EXPECT_DOUBLE_EQ(query.summary().tolerance_max, kQueryCostVsCellsMax);
  EXPECT_TRUE(wire.within());
  EXPECT_TRUE(reduce.within());
  EXPECT_TRUE(query.within());

  // Wire traffic above the Lemma-1 certificate is a violation: the codec
  // may only ever undercut the dense bound.
  wire.record(200.0, 100.0);
  EXPECT_FALSE(wire.within());

  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find(kDriftWireVsLemma1), std::string::npos);
  EXPECT_NE(json.find(kDriftReduceClockVsSim), std::string::npos);
  EXPECT_NE(json.find(kDriftQueryCostVsCells), std::string::npos);
}

}  // namespace
}  // namespace cubist::obs
