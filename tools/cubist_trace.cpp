// cubist-trace — one observed workload, every observability artifact.
//
// Runs the full pipeline with tracing on: a parallel cube construction
// (schedule verification, trace-equals-plan audit with its per-send wire
// check) and a Zipfian partial-cube serving session with a mid-stream
// replan. The drift gauges are fed by that work itself: the build's
// per-view wire volume, every reduce inside it, and every ancestor-routed
// query. It then writes
//
//   trace.json    — Chrome trace-event timeline (Perfetto-loadable)
//                   spanning build -> reduce -> serving,
//   metrics.json  — every registry instrument, cubist-metrics/1 schema,
//   metrics.prom  — the same snapshot in Prometheus text exposition,
//
// and exits non-zero unless all three drift gauges (obs/drift.h) are
// populated AND inside their tolerance windows — the CI drift
// certification gate (tools/bench_report.py --obs wraps this).
//
//   $ cubist-trace --smoke
//   $ cubist-trace --sizes=16x12x8 --log-splits=1x1x0 --queries=4000
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/error.h"
#include "core/parallel_driver.h"
#include "core/partial_cube.h"
#include "core/view_selection.h"
#include "io/generators.h"
#include "lattice/cube_lattice.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/query_engine.h"
#include "serving/workload.h"

using namespace cubist;

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  CUBIST_CHECK(out.good(), "cannot open " << path << " for writing");
  out << content;
  CUBIST_CHECK(out.good(), "failed writing " << path);
}

/// Prints one gauge's verdict; returns true when it is populated and
/// inside its tolerance window.
bool check_gauge(const char* name, const obs::DriftGauge& gauge) {
  const obs::DriftSummary s = gauge.summary();
  std::printf("%-36s samples=%lld ratio=%.6f window=[%.3f, %.3f] %s\n", name,
              static_cast<long long>(s.samples), s.ratio, s.tolerance_min,
              s.tolerance_max,
              s.samples == 0       ? "EMPTY"
              : s.within           ? "ok"
                                   : "DRIFT");
  return s.samples > 0 && s.within;
}

// The observed workload proper; throws `cubist::Error` on invalid
// configuration, which main() renders as a clean CLI error.
int run(const std::vector<std::int64_t>& sizes,
        const std::vector<int>& log_splits, double input_density,
        std::int64_t num_queries, const std::string& trace_path,
        const std::string& metrics_path, const std::string& prom_path) {
  CUBIST_CHECK(sizes.size() == log_splits.size(),
               "--sizes and --log-splits disagree on dimensionality");

  // Everything below must be observed: switch the tracer on before the
  // first instrumented call, and name the tracks whose identity the
  // caller controls.
  obs::Tracer::instance().set_enabled(true);
  obs::install_worker_identity_hook();
  obs::set_thread_identity("main", obs::kTidMain);

  // ---- Phase 1: parallel construction, fully audited. ----
  const CostModel model;
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = input_density;
  spec.seed = 7;
  ParallelOptions options;
  // Require the run's comm event trace to equal the certified plan, with
  // no send over its logical size on the wire; any failure throws.
  options.audit = true;
  const ParallelCubeReport report = run_parallel_cube(
      sizes, log_splits, model,
      [&spec](int, const BlockRange& block) {
        return generate_sparse_block(spec, block);
      },
      /*collect_result=*/true, options);

  std::printf("build: makespan=%.6fs wire=%lld B; trace equals plan "
              "(%lld events)\n",
              report.construction_seconds,
              static_cast<long long>(report.construction_wire_bytes),
              static_cast<long long>(report.run.trace.total_events()));

  // ---- Phase 2: partial-cube serving under a Zipfian stream. ----
  auto input =
      std::make_shared<const SparseArray>(generate_sparse_global(spec));
  const CubeLattice lattice(sizes);
  ViewSelection selection = select_views_greedy(lattice, 3);
  auto partial = std::make_shared<const PartialCube>(
      PartialCube::build(input, selection.views));

  serving::QueryEngineOptions engine_options;
  engine_options.registry = &obs::Registry::global();
  engine_options.cache_budget_bytes = std::int64_t{256} << 10;
  serving::QueryEngine engine(partial, engine_options);

  serving::WorkloadSpec workload_spec;
  workload_spec.skew = serving::WorkloadSpec::Skew::kZipfian;
  workload_spec.seed = 11;
  workload_spec.max_universe = 512;
  serving::WorkloadGenerator workload(sizes, workload_spec);

  const std::int64_t half = num_queries / 2;
  std::int64_t served = 0;
  while (served < half) {
    const int n = static_cast<int>(std::min<std::int64_t>(64, half - served));
    engine.execute_batch(workload.batch(n));
    served += n;
  }
  // Replan under the warmed-up frequencies, then drain the second half
  // against the swapped generation.
  const serving::QueryEngine::ReplanReport replan =
      engine.replan(partial->materialized_bytes() + input->bytes());
  while (served < num_queries) {
    const int n =
        static_cast<int>(std::min<std::int64_t>(64, num_queries - served));
    engine.execute_batch(workload.batch(n));
    served += n;
  }
  const serving::ServingStats stats = engine.stats();
  std::printf("serving: %lld queries (replan -> %zu views), hit-rate=%.2f, "
              "routes d/a/i=%lld/%lld/%lld\n",
              static_cast<long long>(stats.queries), replan.views.size(),
              stats.cache.hit_rate(),
              static_cast<long long>(stats.routed_direct),
              static_cast<long long>(stats.routed_ancestor),
              static_cast<long long>(stats.routed_input));

  // ---- Export: one capture and one snapshot feed every artifact. ----
  const obs::TraceCapture capture = obs::Tracer::instance().capture();
  write_file(trace_path, capture.to_chrome_json());
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  write_file(metrics_path, snapshot.to_json());
  write_file(prom_path, snapshot.to_prometheus());
  std::printf("wrote %s (%lld records, %lld dropped), %s, %s\n",
              trace_path.c_str(),
              static_cast<long long>(capture.total_records()),
              static_cast<long long>(capture.total_dropped()),
              metrics_path.c_str(), prom_path.c_str());

  // ---- Certification gate: every gauge populated and in-window. ----
  bool ok = true;
  ok &= check_gauge(obs::kDriftWireVsLemma1, obs::wire_vs_lemma1_gauge());
  ok &= check_gauge(obs::kDriftReduceClockVsSim,
                    obs::reduce_clock_vs_sim_gauge());
  ok &= check_gauge(obs::kDriftQueryCostVsCells,
                    obs::query_cost_vs_cells_gauge());
  if (!ok) {
    std::printf("DRIFT CERTIFICATION FAILED\n");
    return 1;
  }
  std::printf("drift certification ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("cubist-trace",
                 "Trace + metrics + drift certification over one build "
                 "and one serving session.");
  std::string* sizes_flag =
      args.add_string("sizes", "16x12x8", "global extents, e.g. 16x12x8");
  std::string* splits_flag = args.add_string(
      "log-splits", "1x1x0", "per-dimension grid exponents, e.g. 1x1x0");
  double* density = args.add_double("density", 0.25, "input density");
  std::int64_t* queries =
      args.add_int("queries", 2000, "serving queries (half before replan)");
  std::string* trace_path =
      args.add_string("trace", "trace.json", "Chrome trace output path");
  std::string* metrics_path =
      args.add_string("metrics", "metrics.json", "JSON metrics output path");
  std::string* prom_path = args.add_string(
      "prom", "metrics.prom", "Prometheus text output path");
  bool* smoke = args.add_bool(
      "smoke", false, "small fixed shape and stream (CI smoke test)");
  if (!args.parse(argc, argv)) return 2;

  try {
    std::vector<std::int64_t> sizes = parse_x_list(*sizes_flag, "sizes");
    std::vector<int> log_splits = parse_x_int_list(*splits_flag, "log-splits");
    std::int64_t num_queries = *queries;
    if (*smoke) {
      sizes = {8, 8, 8};
      log_splits = {1, 1, 0};
      num_queries = 600;
    }
    return run(sizes, log_splits, *density, num_queries, *trace_path,
               *metrics_path, *prom_path);
  } catch (const InvalidArgument& error) {
    // Bad input: the check's own message, without its source location.
    std::fprintf(stderr, "error: %s\n", std::string(error.message()).c_str());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
