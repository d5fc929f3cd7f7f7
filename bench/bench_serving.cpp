// Serving-engine load generator: drives QueryEngine with uniform and
// Zipfian-skewed query streams across client concurrency, batch size and
// cache on/off, in the spirit of nexuslb's LoadTest driver. Latency
// percentiles come from the engine's bounded-memory quantile sketches
// (never from means), and every case asserts the sketch respected its
// static memory bound. `tools/bench_report.py --serving` normalizes the
// counters into the committed BENCH_serving.json; CI smoke runs only the
// small shape.
//
// BM_PartialServing is the partial-materialization sweep: at each
// (byte-budget fraction x Zipf skew) point it plans a static size-based
// selection and a workload-adaptive one (warm up on the trace, replan
// under the same budget), certifies both against the memory verifier,
// and replays the identical query stream through each. The per-query
// cells_scanned distribution is exact and seed-deterministic (cache off,
// fixed streams), so the adaptive-vs-static comparison the report FAILS
// on is reproducible bit for bit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace cubist::bench {
namespace {

using serving::Query;
using serving::QueryEngine;
using serving::QueryEngineOptions;
using serving::QueryKind;
using serving::ServingStats;
using serving::WorkloadGenerator;
using serving::WorkloadSpec;

constexpr std::uint64_t kSeed = 20030417;

struct ShapeConfig {
  std::string name;
  std::vector<std::int64_t> sizes;
  double density;
  int queries;       // stream length per case
  int max_universe;  // distinct descriptors to sample from
};

const ShapeConfig& fig_shape() {
  static const ShapeConfig shape{"fig", {32, 32, 16, 16}, 0.25, 12000, 768};
  return shape;
}

const ShapeConfig& smoke_shape() {
  static const ShapeConfig shape{"smoke", {8, 8, 8}, 0.25, 1500, 256};
  return shape;
}

/// The cube under service, built once per shape and shared by every
/// case (the engine snapshots it immutably, so sharing is safe).
std::shared_ptr<const CubeResult> cube_for(const ShapeConfig& shape) {
  static std::map<std::string, std::shared_ptr<const CubeResult>> cache;
  auto it = cache.find(shape.name);
  if (it == cache.end()) {
    const SparseArray& input = DatasetCache::instance().global(
        shape.sizes, shape.density, kSeed);
    it = cache
             .emplace(shape.name, std::make_shared<const CubeResult>(
                                      build_cube_sequential(input)))
             .first;
  }
  return it->second;
}

FigureTable& serving_table() {
  static FigureTable table(
      "Serving engine: latency under load (quantile-sketch percentiles)",
      {"shape", "skew", "clients", "batch", "cache", "hit%", "p50_us",
       "p99_us", "p999_us", "qps"});
  return table;
}

void BM_Serving(benchmark::State& state, const ShapeConfig& shape,
                int clients, int batch_size, bool zipfian, bool cache_on) {
  auto cube = cube_for(shape);

  WorkloadSpec spec;
  spec.skew =
      zipfian ? WorkloadSpec::Skew::kZipfian : WorkloadSpec::Skew::kUniform;
  spec.zipf_exponent = 1.25;
  // Same seed for cache on/off: both sweeps replay the same stream, so
  // the cache is the only variable.
  spec.seed = kSeed + static_cast<std::uint64_t>(clients);
  spec.max_universe = shape.max_universe;

  ServingStats stats;
  double elapsed = 0.0;
  for (auto _ : state) {
    WorkloadGenerator workload(*cube, spec);
    ThreadPool pool(clients);
    QueryEngineOptions options;
    options.pool = &pool;
    options.max_workers = clients;
    // ~1/4 of the descriptor universe's working set: Zipfian's hot head
    // stays resident, a uniform stream churns. (The fig working set is
    // ~2 MB; a budget that swallows it would hide the skew axis.)
    options.cache_budget_bytes = cache_on ? (std::int64_t{512} << 10) : 0;
    options.sketch_max_count = shape.queries + batch_size;
    QueryEngine engine(cube, options);

    const Timer timer;
    int served = 0;
    while (served < shape.queries) {
      const int n = std::min(batch_size, shape.queries - served);
      engine.execute_batch(workload.batch(n));
      served += n;
    }
    elapsed = timer.elapsed_seconds();
    state.SetIterationTime(elapsed);
    stats = engine.stats();
  }

  CUBIST_ASSERT(stats.sketch_memory_bytes <= stats.sketch_memory_bound_bytes,
                "latency sketch exceeded its static memory bound");
  CUBIST_ASSERT(stats.queries >= shape.queries,
                "engine served fewer queries than generated");

  const double hit_pct = stats.cache.hit_rate() * 100.0;
  const double qps =
      elapsed > 0 ? static_cast<double>(stats.queries) / elapsed : 0.0;
  serving_table().add(
      {shape.name, zipfian ? "zipf" : "uniform", std::to_string(clients),
       std::to_string(batch_size), cache_on ? "on" : "off",
       TextTable::fixed(hit_pct, 1), TextTable::fixed(stats.overall.p50_us, 1),
       TextTable::fixed(stats.overall.p99_us, 1),
       TextTable::fixed(stats.overall.p999_us, 1), TextTable::fixed(qps, 0)});

  state.counters["clients"] = clients;
  state.counters["batch"] = batch_size;
  state.counters["zipf"] = zipfian ? 1.0 : 0.0;
  state.counters["cache"] = cache_on ? 1.0 : 0.0;
  state.counters["served"] = static_cast<double>(stats.queries);
  state.counters["qps"] = qps;
  state.counters["hit_pct"] = hit_pct;
  state.counters["cache_bytes_peak"] =
      static_cast<double>(stats.cache.peak_bytes);
  state.counters["p50_us"] = stats.overall.p50_us;
  state.counters["p99_us"] = stats.overall.p99_us;
  state.counters["p999_us"] = stats.overall.p999_us;
  state.counters["sketch_KB"] =
      static_cast<double>(stats.sketch_memory_bytes) / 1024.0;
  state.counters["sketch_bound_KB"] =
      static_cast<double>(stats.sketch_memory_bound_bytes) / 1024.0;
  for (int i = 0; i < serving::kNumQueryKinds; ++i) {
    const auto& lat = stats.latency[static_cast<std::size_t>(i)];
    if (lat.count == 0) continue;
    const std::string kind = serving::query_kind_name(
        static_cast<QueryKind>(i));
    state.counters["n_" + kind] = static_cast<double>(lat.count);
    state.counters["p50_" + kind + "_us"] = lat.p50_us;
    state.counters["p99_" + kind + "_us"] = lat.p99_us;
    state.counters["p999_" + kind + "_us"] = lat.p999_us;
  }
}

// ---------------------------------------------------------------------
// Partial-materialization sweep: adaptive vs static under a byte budget.
// ---------------------------------------------------------------------

struct PartialShapeConfig {
  std::string name;
  std::vector<std::int64_t> sizes;
  double density;
  int queries;       // measured stream length per point
  int max_universe;  // distinct descriptors to sample from
};

/// 5-D 6^5: every proper view is at most 14.4% of the full-cube bytes,
/// so even the tightest sweep budget can afford any single hot view —
/// the regime where the policies differ in WHAT they materialize rather
/// than whether they can materialize anything big at all.
const PartialShapeConfig& partial_fig_shape() {
  static const PartialShapeConfig shape{
      "part", {6, 6, 6, 6, 6}, 0.25, 8000, 512};
  return shape;
}

const PartialShapeConfig& partial_smoke_shape() {
  static const PartialShapeConfig shape{"psmoke", {4, 4, 4, 4, 4}, 0.25, 2500,
                                        256};
  return shape;
}

FigureTable& partial_table() {
  static FigureTable table(
      "Partial materialization: adaptive vs static selection at equal "
      "byte budget (identical streams, cache off)",
      {"shape", "budget%", "zipf", "policy", "views", "mat_KB", "direct%",
       "mean_cells", "p99_cells", "p99_us", "qps"});
  return table;
}

/// One policy's replay of the measurement stream: exact per-query
/// cells_scanned (stats deltas, cache off) plus wall-clock percentiles.
struct PolicyMeasurement {
  double mean_cells = 0;
  std::int64_t p99_cells = 0;
  double p99_us = 0;
  double direct_pct = 0;
  double qps = 0;
  double elapsed_s = 0;
};

PolicyMeasurement measure_policy(
    const std::shared_ptr<const PartialCube>& cube,
    const std::vector<Query>& stream) {
  ThreadPool pool(1);
  QueryEngineOptions options;
  options.pool = &pool;
  options.max_workers = 1;
  options.cache_budget_bytes = 0;  // every query pays its scan
  QueryEngine engine(cube, options);
  std::vector<std::int64_t> cells(stream.size());
  std::vector<double> micros(stream.size());
  std::int64_t scanned_before = 0;
  const Timer total;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Timer timer;
    engine.execute(stream[i]);
    micros[i] = timer.elapsed_seconds() * 1e6;
    const std::int64_t scanned = engine.cells_scanned_total();
    cells[i] = scanned - scanned_before;
    scanned_before = scanned;
  }
  PolicyMeasurement m;
  m.elapsed_s = total.elapsed_seconds();
  std::int64_t total_cells = 0;
  for (std::int64_t c : cells) total_cells += c;
  m.mean_cells =
      static_cast<double>(total_cells) / static_cast<double>(stream.size());
  const std::size_t p99_rank = std::min(
      stream.size() - 1,
      static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(stream.size()))) -
          1);
  std::nth_element(cells.begin(),
                   cells.begin() + static_cast<std::ptrdiff_t>(p99_rank),
                   cells.end());
  m.p99_cells = cells[p99_rank];
  std::nth_element(micros.begin(),
                   micros.begin() + static_cast<std::ptrdiff_t>(p99_rank),
                   micros.end());
  m.p99_us = micros[p99_rank];
  const ServingStats stats = engine.stats();
  m.direct_pct = 100.0 * static_cast<double>(stats.routed_direct) /
                 static_cast<double>(stats.queries);
  m.qps = m.elapsed_s > 0
              ? static_cast<double>(stream.size()) / m.elapsed_s
              : 0.0;
  return m;
}

void add_partial_row(const PartialShapeConfig& shape, int budget_pct,
                     double zipf, const char* policy, std::size_t views,
                     std::int64_t mat_bytes, const PolicyMeasurement& m) {
  partial_table().add(
      {shape.name, std::to_string(budget_pct), TextTable::fixed(zipf, 1),
       policy, std::to_string(views),
       TextTable::fixed(static_cast<double>(mat_bytes) / 1024.0, 1),
       TextTable::fixed(m.direct_pct, 1), TextTable::fixed(m.mean_cells, 1),
       std::to_string(m.p99_cells), TextTable::fixed(m.p99_us, 1),
       TextTable::fixed(m.qps, 0)});
}

void BM_PartialServing(benchmark::State& state,
                       const PartialShapeConfig& shape, int budget_pct,
                       double zipf) {
  const SparseArray& input = DatasetCache::instance().global(
      shape.sizes, shape.density, kSeed);
  // Non-owning alias: the DatasetCache entry outlives every cube built
  // here, and sharing one input across generations is the point.
  const std::shared_ptr<const SparseArray> input_ptr(
      std::shared_ptr<const SparseArray>(), &input);
  const CubeLattice lattice(shape.sizes);
  std::vector<DimSet> proper;
  for (DimSet view : lattice.all_views()) {
    if (view != DimSet::full(lattice.ndims())) proper.push_back(view);
  }
  const std::int64_t full_bytes =
      selection_storage_cells(lattice, proper) *
      static_cast<std::int64_t>(sizeof(Value));
  const std::int64_t budget_bytes = full_bytes * budget_pct / 100;

  // The measured stream; the adaptive policy warms up on this exact
  // trace (train-on-trace: the feedback loop sees the workload it will
  // serve, the standard steelman for adaptive-vs-static comparisons).
  WorkloadSpec spec;
  spec.skew = WorkloadSpec::Skew::kZipfian;
  spec.zipf_exponent = zipf;
  spec.seed = kSeed + static_cast<std::uint64_t>(zipf * 10.0);
  spec.max_universe = shape.max_universe;
  const std::vector<Query> stream =
      WorkloadGenerator(shape.sizes, spec).batch(shape.queries);

  // Static policy: size-based benefit-per-byte (uniform weights) under
  // the byte budget, certified by the memory verifier.
  const std::vector<std::int64_t> uniform(
      static_cast<std::size_t>(lattice.num_views()), 1);
  const ViewSelection static_sel =
      select_views_weighted(lattice, budget_bytes, uniform,
                            static_cast<std::int64_t>(sizeof(Value)));
  const std::int64_t static_certified = certify_selection_bytes(
      lattice, static_sel.views, budget_bytes);
  auto static_cube = std::make_shared<const PartialCube>(
      PartialCube::build(input_ptr, static_sel.views));

  // Adaptive policy: serve the trace from the static plan to populate
  // the per-view frequency counters, then replan under the same budget.
  QueryEngine::ReplanReport replan;
  std::shared_ptr<const PartialCube> adaptive_cube;
  {
    ThreadPool pool(1);
    QueryEngineOptions options;
    options.pool = &pool;
    options.max_workers = 1;
    options.cache_budget_bytes = 0;
    QueryEngine engine(static_cube, options);
    for (const Query& query : stream) engine.execute(query);
    replan = engine.replan(budget_bytes);
    adaptive_cube = engine.generation();
  }
  CUBIST_ASSERT(replan.certified_bytes <= budget_bytes,
                "adaptive selection exceeded its certified budget");
  CUBIST_ASSERT(static_certified <= budget_bytes,
                "static selection exceeded its certified budget");

  PolicyMeasurement static_m;
  PolicyMeasurement adaptive_m;
  for (auto _ : state) {
    static_m = measure_policy(static_cube, stream);
    adaptive_m = measure_policy(adaptive_cube, stream);
    state.SetIterationTime(static_m.elapsed_s + adaptive_m.elapsed_s);
  }

  add_partial_row(shape, budget_pct, zipf, "static",
                  static_sel.views.size(), static_cube->materialized_bytes(),
                  static_m);
  add_partial_row(shape, budget_pct, zipf, "adaptive", replan.views.size(),
                  adaptive_cube->materialized_bytes(), adaptive_m);

  state.counters["budget_pct"] = budget_pct;
  state.counters["budget_bytes"] = static_cast<double>(budget_bytes);
  state.counters["full_bytes"] = static_cast<double>(full_bytes);
  state.counters["zipf_s"] = zipf;
  state.counters["queries"] = shape.queries;
  state.counters["static_views"] =
      static_cast<double>(static_sel.views.size());
  state.counters["static_mat_bytes"] =
      static_cast<double>(static_cube->materialized_bytes());
  state.counters["static_certified_bytes"] =
      static_cast<double>(static_certified);
  state.counters["static_mean_cells"] = static_m.mean_cells;
  state.counters["static_p99_cells"] =
      static_cast<double>(static_m.p99_cells);
  state.counters["static_p99_us"] = static_m.p99_us;
  state.counters["static_direct_pct"] = static_m.direct_pct;
  state.counters["static_qps"] = static_m.qps;
  state.counters["adaptive_views"] = static_cast<double>(replan.views.size());
  state.counters["adaptive_mat_bytes"] =
      static_cast<double>(adaptive_cube->materialized_bytes());
  state.counters["adaptive_certified_bytes"] =
      static_cast<double>(replan.certified_bytes);
  state.counters["adaptive_mean_cells"] = adaptive_m.mean_cells;
  state.counters["adaptive_p99_cells"] =
      static_cast<double>(adaptive_m.p99_cells);
  state.counters["adaptive_p99_us"] = adaptive_m.p99_us;
  state.counters["adaptive_direct_pct"] = adaptive_m.direct_pct;
  state.counters["adaptive_qps"] = adaptive_m.qps;
}

void register_partial_case(const PartialShapeConfig& shape, int budget_pct,
                           double zipf) {
  const std::string name =
      "BM_PartialServing/" + shape.name + "/b" + std::to_string(budget_pct) +
      "/z" + std::to_string(static_cast<int>(zipf * 10.0));
  ::benchmark::RegisterBenchmark(
      name.c_str(),
      [&shape, budget_pct, zipf](benchmark::State& state) {
        BM_PartialServing(state, shape, budget_pct, zipf);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void register_case(const ShapeConfig& shape, int clients, int batch_size,
                   bool zipfian, bool cache_on) {
  const std::string name = "BM_Serving/" + shape.name + "/c" +
                           std::to_string(clients) + "/b" +
                           std::to_string(batch_size) +
                           (zipfian ? "/zipf" : "/uniform") +
                           (cache_on ? "/cache" : "/nocache");
  ::benchmark::RegisterBenchmark(
      name.c_str(),
      [&shape, clients, batch_size, zipfian, cache_on](
          benchmark::State& state) {
        BM_Serving(state, shape, clients, batch_size, zipfian, cache_on);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void register_benchmarks() {
  // Concurrency x skew x cache at the default batch.
  for (int clients : {1, 2, 8}) {
    for (bool zipfian : {false, true}) {
      for (bool cache_on : {false, true}) {
        register_case(fig_shape(), clients, 256, zipfian, cache_on);
      }
    }
  }
  // Batch-size sweep at the loaded corner.
  for (int batch_size : {32, 1024}) {
    register_case(fig_shape(), 8, batch_size, /*zipfian=*/true,
                  /*cache_on=*/true);
  }
  // CI smoke: tiny shape, Zipfian only, both cache settings.
  for (int clients : {1, 8}) {
    for (bool cache_on : {false, true}) {
      register_case(smoke_shape(), clients, 64, /*zipfian=*/true, cache_on);
    }
  }
  // Partial-materialization sweep: budget fraction x skew, all budgets
  // at or below 25% of the full-cube bytes. The exponents model
  // dashboard-skewed streams whose 99%-mass boundary is deep enough to
  // reach views a size-based selection drops — s high enough that a
  // head exists, low enough that the tail still matters at p99. (At
  // s >= 3 the top handful of descriptors carry >99% of the traffic,
  // so ANY selection that covers them ties on tail behavior and the
  // policies become indistinguishable at the 99th percentile.)
  for (int budget_pct : {15, 20, 25}) {
    for (double zipf : {2.5, 2.6}) {
      register_partial_case(partial_fig_shape(), budget_pct, zipf);
    }
  }
  for (int budget_pct : {20, 25}) {
    for (double zipf : {2.5, 2.6}) {
      register_partial_case(partial_smoke_shape(), budget_pct, zipf);
    }
  }
}

void print_tables() {
  serving_table().print();
  partial_table().print();
}

}  // namespace
}  // namespace cubist::bench

int main(int argc, char** argv) {
  cubist::bench::register_benchmarks();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  cubist::bench::print_tables();
  return 0;
}
