// BM_TraceOverhead — the tracer's disabled-cost contract, measured.
//
// The observability layer leaves its Span/Instant instrumentation
// compiled into the hot paths permanently; the contract (obs/trace.h)
// is that with tracing DISABLED the residue costs <= 1% on real work.
// Three measurements pin that down:
//
//   BM_DisabledSpanNs     — nanoseconds per disabled Span + tags (the
//                           unit cost: one relaxed load and a branch).
//   BM_DenseAggTrace/mode — the dense 3-target aggregation kernel
//                           (48^3, the builder's hottest scan) bare
//                           (mode 0), with the builder's span pattern
//                           and tracing disabled (mode 1), and with
//                           tracing enabled (mode 2).
//   BM_ServingZipfTrace/mode — single-client Zipfian serving point,
//                           tracing disabled (0) vs enabled (1); the
//                           enabled run also reports spans_per_query
//                           from an actual capture.
//
// tools/bench_report.py --obs turns these into BENCH_obs.json and FAILS
// if the computed disabled-tracer overhead bound — unit cost x
// instrumentation density over measured work time — exceeds 1% on either
// the kernel or the serving point (docs/PERFORMANCE.md records the
// numbers). The computed bound is the gate because it is deterministic;
// the directly measured mode-0-vs-mode-1 delta rides along as evidence.
#include <benchmark/benchmark.h>

#include <cstdint>
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
using serving::WorkloadGenerator;
using serving::WorkloadSpec;

constexpr std::uint64_t kSeed = 20030417;

const DenseArray& dense_fixture() {
  static const DenseArray parent = [] {
    const SparseSpec spec{{48, 48, 48}, 1.0, 3, {}, 0.0};
    return generate_sparse_global(spec).to_dense();
  }();
  return parent;
}

/// Unit cost of the disabled instrumentation: one Span with the
/// builder's tag pattern, tracer off.
void BM_DisabledSpanNs(benchmark::State& state) {
  obs::Tracer::instance().set_enabled(false);
  std::int64_t i = 0;
  for (auto _ : state) {
    obs::Span span("bench", "op");
    span.tag("view", i).tag("children", std::int64_t{3});
    span.tag("cells", i).tag("updates", i);
    benchmark::DoNotOptimize(i += 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DisabledSpanNs);

/// Arg 0: 0 = bare kernel, 1 = span pattern with tracing disabled,
/// 2 = span pattern with tracing enabled. One span per scan — exactly
/// the density parallel_builder's compute_children emits.
void BM_DenseAggTrace(benchmark::State& state) {
  const std::int64_t mode = state.range(0);
  const DenseArray& parent = dense_fixture();
  std::vector<DenseArray> children;
  std::vector<AggregationTarget> targets;
  children.reserve(3);
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back({DimSet::single(pos), &children[static_cast<std::size_t>(pos)]});
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(mode == 2);
  if (mode == 2) tracer.reset();
  for (auto _ : state) {
    if (mode == 0) {
      const AggregationStats stats = aggregate_children(
          parent, targets, BlockRange::whole(parent.shape()));
      benchmark::DoNotOptimize(stats.updates);
    } else {
      obs::Span span("build", "scan_view");
      span.tag("view", std::int64_t{7}).tag("children", std::int64_t{3});
      const AggregationStats stats = aggregate_children(
          parent, targets, BlockRange::whole(parent.shape()));
      span.tag("cells", stats.cells_scanned).tag("updates", stats.updates);
      benchmark::DoNotOptimize(stats.updates);
    }
  }
  tracer.set_enabled(false);
  state.SetItemsProcessed(state.iterations() * parent.size() * 3);
  state.counters["mode"] = static_cast<double>(mode);
  // Instrumentation density of the measured region: spans per kernel
  // invocation (bench_report's computed-bound input).
  state.counters["spans_per_op"] = mode == 0 ? 0.0 : 1.0;
}
BENCHMARK(BM_DenseAggTrace)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Arg 0: tracing disabled (0) / enabled (1). Single client, Zipfian
/// stream over a full-cube engine — the serving instrumentation
/// (query span, route tags, registry counters) is always compiled in;
/// the axis is only the tracer switch. Cache OFF: the contract is
/// priced against queries that compute. (A cache hit answers in
/// ~0.5 us, so its floor is one span over that — a few percent that no
/// instrumentation scheme can amortize; docs/PERFORMANCE.md records
/// the hit-path floor separately.)
void BM_ServingZipfTrace(benchmark::State& state) {
  const bool enabled = state.range(0) == 1;
  static const auto cube = std::make_shared<const CubeResult>(
      build_cube_sequential(DatasetCache::instance().global(
          {32, 32, 32}, 0.25, kSeed)));
  WorkloadSpec spec;
  spec.skew = WorkloadSpec::Skew::kZipfian;
  spec.zipf_exponent = 1.25;
  spec.seed = kSeed;
  spec.max_universe = 256;
  WorkloadGenerator workload(*cube, spec);
  const std::vector<Query> stream = workload.batch(512);

  QueryEngineOptions options;
  options.cache_budget_bytes = 0;
  QueryEngine engine(cube, options);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(enabled);
  if (enabled) tracer.reset();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(stream[i]));
    i = (i + 1) % stream.size();
  }
  tracer.set_enabled(false);
  state.SetItemsProcessed(state.iterations());
  state.counters["enabled"] = enabled ? 1.0 : 0.0;
  if (enabled) {
    const obs::TraceCapture capture = tracer.capture();
    state.counters["spans_per_query"] =
        state.iterations() > 0
            ? static_cast<double>(capture.total_records() +
                                  capture.total_dropped()) /
                  static_cast<double>(state.iterations())
            : 0.0;
  }
}
BENCHMARK(BM_ServingZipfTrace)->Arg(0)->Arg(1);

}  // namespace
}  // namespace cubist::bench

BENCHMARK_MAIN();
