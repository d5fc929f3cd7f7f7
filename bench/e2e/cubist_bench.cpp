// cubist_bench — one end-to-end cubist workload per process.
//
// Builds or serves the paper's Figure-7 shape from --seed for --seconds
// and times every layer only from outside, by timing calls into the
// layer's public functions. With CUBIST_TRACE=1 it instead runs the
// shorter traced pass: the library's own spans and the bench's spans
// (bench/generate, bench/provide_block, bench/build, bench/query,
// bench/replan) are captured and reduced to per-layer self times
// (attribution.h). Every output is checked; a wrong answer or an
// exception counts as a failed operation.
//
// Output: one `workload metric value unit` line per metric, then
// `workload attempted N` and `workload failed N`. bench/e2e/run.py is
// the single command that drives it; README.md defines every metric.
//
//   cubist_bench --workload=build-d25 --seed=1 --seconds=10
//   CUBIST_TRACE=1 cubist_bench --workload=serve-zipf --seed=1
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attribution.h"
#include "bench_util.h"
#include "common/args.h"
#include "cubist/cubist.h"

using namespace cubist;
using serving::Query;
using serving::QueryEngine;
using serving::QueryEngineOptions;
using serving::QueryResult;
using serving::WorkloadGenerator;
using serving::WorkloadSpec;

namespace {

constexpr int kLogRanks = 2;  // p = 4 rank threads over the pool of 4
// setup_s is the median of at least kSetups setups and of as many as fit
// in kSetupSeconds, at most kMaxSetups. The traced pass sets up once.
constexpr int kSetups = 5;
constexpr int kMaxSetups = 100;
constexpr double kSetupSeconds = 1.0;
constexpr int kCheckEvery = 64;  // untimed oracle check of every 64th query
constexpr double kMaxQueriesPerClientSecond = 2e6;
constexpr int kReplans = 20;
constexpr int kTimedRepeats = 25;  // repeats of the sub-millisecond timings
// Trace buffer sizes: one build emits a few hundred records per rank; a
// traced query emits its two spans, a cache instant, any evictions and
// the oracle check's span.
constexpr std::int64_t kRankTraceRecords = 1 << 13;
constexpr std::int64_t kClientTraceRecordsPerQuery = 6;

enum class Kind { kParallelBuild, kSequentialMax, kServeFull, kServePartial };

struct Workload {
  const char* name;
  Kind kind;
  std::vector<std::int64_t> sizes;
  std::vector<std::int64_t> smoke_sizes;
  double density;
  // Discarded builds. The first builds of a process run slower than later
  // ones: one of them on build-d25 and build-seq-max, about five on
  // build-d5 (220 ms, then 75 ms).
  int warmup_builds = 0;
};

// README.md records why each workload exists.
const Workload kWorkloads[] = {
    {"build-d25", Kind::kParallelBuild, {64, 64, 64, 64}, {16, 16, 16, 16},
     0.25, 3},
    {"build-d5", Kind::kParallelBuild, {64, 64, 64, 64}, {16, 16, 16, 16},
     0.05, 8},
    {"build-seq-max", Kind::kSequentialMax, {64, 64, 64, 64},
     {16, 16, 16, 16}, 0.25, 3},
    {"serve-zipf", Kind::kServeFull, {64, 64, 64, 64}, {16, 16, 16, 16}, 0.25},
    {"serve-partial-replan", Kind::kServePartial, {16, 16, 16, 16, 8},
     {8, 8, 8, 8, 4}, 0.25},
};

struct Run {
  const Workload* workload = nullptr;
  std::vector<std::int64_t> sizes;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  bool traced = false;

  int min_timed_builds() const { return smoke ? 3 : 100; }
  int traced_builds() const { return smoke ? 2 : 10; }
  // Traced queries per client in the traced pass.
  std::int64_t traced_queries() const { return smoke ? 400 : 20'000; }
};

class Output {
 public:
  explicit Output(const char* workload) : workload_(workload) {}

  void metric(const char* name, double value, const char* unit) const {
    std::printf("%s %s %.17g %s\n", workload_, name, value, unit);
  }

  void fail(const std::string& why, std::int64_t count = 1) {
    if (count <= 0) return;
    if (failed < 5) {
      std::fprintf(stderr, "%s: %lld failed operation(s): %s\n", workload_,
                   static_cast<long long>(count), why.c_str());
    }
    failed += count;
  }

  void finish() const {
    metric("failed_frac",
           attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0,
           "ratio");
    std::printf("%s attempted %lld\n%s failed %lld\n", workload_,
                static_cast<long long>(attempted), workload_,
                static_cast<long long>(failed));
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

 private:
  const char* workload_;
};

/// Nearest-rank quantile; reorders `values`.
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::clamp(
      std::ceil(q * n), 1.0, n));
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return static_cast<double>(values[rank - 1]);
}

template <typename T>
double median(std::vector<T> values) {
  return quantile(values, 0.5);
}

double megabytes(std::int64_t bytes) {
  return static_cast<double>(bytes) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

void set_tracing(bool on) { obs::Tracer::instance().set_enabled(on); }

/// Runs `make` repeatedly and reports the median time as setup_s;
/// returns the last result. Nothing from an earlier setup is alive while
/// the next one is timed.
template <typename Make>
auto timed_setup(const Run& run, const Make& make, const Output& out) {
  const int setups = run.traced ? 1 : kSetups;
  const double budget_s = run.traced ? 0.0 : kSetupSeconds;
  std::vector<double> times;
  double total = 0;
  std::optional<decltype(make())> result;
  while (static_cast<int>(times.size()) < setups ||
         (total < budget_s && static_cast<int>(times.size()) < kMaxSetups)) {
    result.reset();
    const Timer timer;
    result.emplace(make());
    times.push_back(timer.elapsed_seconds());
    total += times.back();
  }
  out.metric("setup_s", median(times), "s");
  return std::move(*result);
}

/// Median wall seconds of `fn` over kTimedRepeats calls.
template <typename Fn>
double timed_median(const Fn& fn) {
  std::vector<double> times;
  for (int i = 0; i < kTimedRepeats; ++i) {
    const Timer timer;
    fn();
    times.push_back(timer.elapsed_seconds());
  }
  return median(times);
}

SparseArray generate_input(const Run& run) {
  obs::Span span("bench", "generate");
  SparseSpec spec;
  spec.sizes = run.sizes;
  spec.density = run.workload->density;
  spec.seed = run.seed;
  return generate_sparse_global(spec);
}

// ---------------------------------------------------------------- builds

/// Counters one build reports; identical for every build of one input.
struct BuildCounters {
  double virtual_s = 0;
  std::int64_t logical_bytes = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t messages = 0;
  std::int64_t gather_bytes = 0;
  std::int64_t peak_live_bytes = 0;
  std::int64_t peak_scratch_bytes = 0;
  std::int64_t cells_scanned = 0;
  std::int64_t updates = 0;

  bool operator==(const BuildCounters&) const = default;
};

BuildCounters counters_of(const ParallelCubeReport& report) {
  BuildCounters c;
  c.virtual_s = report.construction_seconds;
  c.logical_bytes = report.construction_bytes;
  c.wire_bytes = report.construction_wire_bytes;
  c.messages = report.run.volume.total_messages;
  c.gather_bytes = report.run.volume.total_bytes - report.construction_bytes;
  c.peak_live_bytes = report.max_peak_live_bytes;
  for (const ParallelBuildStats& rank : report.rank_stats) {
    c.peak_scratch_bytes = std::max(c.peak_scratch_bytes,
                                    rank.peak_scratch_bytes);
    c.cells_scanned += rank.cells_scanned;
    c.updates += rank.updates;
  }
  return c;
}

BuildCounters counters_of(const BuildStats& stats, const CostModel& model) {
  BuildCounters c;
  c.virtual_s =
      model.seconds_for_scan(static_cast<double>(stats.cells_scanned)) +
      model.seconds_for_updates(static_cast<double>(stats.updates));
  c.peak_live_bytes = stats.peak_live_bytes;
  c.peak_scratch_bytes = stats.peak_scratch_bytes;
  c.cells_scanned = stats.cells_scanned;
  c.updates = stats.updates;
  return c;
}

/// One timed build: returns its wall seconds and counters, or nullopt
/// when its output differs from the oracle.
using BuildFn = std::function<std::optional<BuildCounters>(double* seconds)>;

struct BuildTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::optional<BuildCounters> counters;
};

/// Warms up, then times builds: for --seconds and at least
/// min_timed_builds untraced, or in the traced pass traced_builds traced
/// ones with an untraced one before every two. A build whose counters
/// differ from the first build's fails the determinism check.
BuildTimes time_builds(const Run& run, const BuildFn& build, Output& out) {
  BuildTimes times;
  set_tracing(false);
  double ignored = 0;
  for (int i = 0; i < run.workload->warmup_builds; ++i) build(&ignored);
  const auto attempt = [&](bool traced) {
    ++out.attempted;
    set_tracing(traced);
    try {
      double seconds = 0;
      const std::optional<BuildCounters> counters = build(&seconds);
      set_tracing(false);
      if (!counters) {
        out.fail("cube differs from the oracle");
      } else if (times.counters && !(*times.counters == *counters)) {
        out.fail("build counters differ between builds of one input");
      } else {
        times.counters = counters;
        (traced ? times.traced : times.untraced).push_back(seconds);
      }
    } catch (const std::exception& error) {
      set_tracing(false);
      out.fail(error.what());
    }
  };
  if (run.traced) {
    for (int i = 0; i < 3 * run.traced_builds() / 2; ++i) attempt(i % 3 != 0);
    return times;
  }
  const Timer window;
  for (int i = 0; window.elapsed_seconds() < run.seconds ||
                  i < run.min_timed_builds();
       ++i) {
    attempt(false);
  }
  return times;
}

void report_build_counters(const BuildCounters& c, const Output& out) {
  out.metric("array.cells_scanned", static_cast<double>(c.cells_scanned),
             "count");
  out.metric("array.updates", static_cast<double>(c.updates), "count");
  out.metric("array.peak_scratch_mb", megabytes(c.peak_scratch_bytes), "MB");
  out.metric("minimpi.logical_mb", megabytes(c.logical_bytes), "MB");
  out.metric("minimpi.wire_mb", megabytes(c.wire_bytes), "MB");
  out.metric("minimpi.wire_ratio",
             ratio(static_cast<double>(c.wire_bytes),
                   static_cast<double>(c.logical_bytes)),
             "ratio");
  out.metric("minimpi.messages", static_cast<double>(c.messages), "count");
  out.metric("core.gather_mb", megabytes(c.gather_bytes), "MB");
}

void report_builds(BuildTimes& times, const Output& out) {
  const double total = [&] {
    double sum = 0;
    for (double s : times.untraced) sum += s;
    return sum;
  }();
  out.metric("op_samples", static_cast<double>(times.untraced.size()),
             "count");
  out.metric("ops_per_s",
             ratio(static_cast<double>(times.untraced.size()), total), "1/s");
  out.metric("op_p50_us", quantile(times.untraced, 0.5) * 1e6, "us");
  out.metric("op_p90_us", quantile(times.untraced, 0.9) * 1e6, "us");
  const BuildCounters c = times.counters.value_or(BuildCounters{});
  out.metric("build_virtual_s", c.virtual_s, "virtual_s");
  out.metric("build_wire_mb", megabytes(c.wire_bytes), "MB");
  out.metric("peak_live_mb", megabytes(c.peak_live_bytes), "MB");
  report_build_counters(c, out);
}

/// Traced against untraced median operation time, in percent.
template <typename T>
double trace_overhead_pct(std::vector<T> untraced, std::vector<T> traced) {
  const double base = median(std::move(untraced));
  return base > 0 ? (median(std::move(traced)) / base - 1.0) * 100.0 : 0.0;
}

/// MAX over the non-empty input cells of every proper view, 0 where a
/// view cell covers none (finalize_view's contract). One pass over the
/// non-zeros, independent of the aggregation tree and its kernels.
CubeResult max_projection(const SparseArray& input) {
  const std::vector<std::int64_t>& sizes = input.shape().extents();
  const int n = input.ndim();
  struct View {
    DimSet view;
    std::vector<int> dims;
    DenseArray array;
    std::vector<std::int64_t> coords;
    std::vector<std::uint8_t> seen;
  };
  std::vector<View> views;
  for (std::uint32_t mask = 0; mask + 1 < (std::uint32_t{1} << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    std::vector<std::int64_t> extents;
    for (int d : view.dims()) {
      extents.push_back(sizes[static_cast<std::size_t>(d)]);
    }
    DenseArray array{Shape{extents}};
    const auto cells = static_cast<std::size_t>(array.size());
    views.push_back(View{view, view.dims(), std::move(array),
                         std::vector<std::int64_t>(extents.size()),
                         std::vector<std::uint8_t>(cells, 0)});
  }
  input.for_each_nonzero([&views](const std::int64_t* index, Value value) {
    for (View& v : views) {
      for (std::size_t i = 0; i < v.dims.size(); ++i) {
        v.coords[i] = index[v.dims[i]];
      }
      const std::int64_t cell = v.array.shape().linear_index(v.coords);
      std::uint8_t& seen = v.seen[static_cast<std::size_t>(cell)];
      if (seen == 0 || value > v.array[cell]) {
        v.array[cell] = value;
        seen = 1;
      }
    }
  });
  CubeResult cube(sizes);
  for (View& v : views) cube.put(v.view, std::move(v.array));
  return cube;
}

void report_build_layers(const Run& run, BuildTimes& times, Output& out);

void run_parallel_build(const Run& run, Output& out) {
  const SparseArray input =
      timed_setup(run, [&] { return generate_input(run); }, out);
  out.metric("io.input_nnz", static_cast<double>(input.nnz()), "count");
  const std::vector<int> log_splits = greedy_partition(run.sizes, kLogRanks);
  const CubeResult reference = reference_cube(input);
  const CostModel model = bench::paper_model();
  const BlockProvider provider = [&input](int, const BlockRange& block) {
    obs::Span span("bench", "provide_block");
    return extract_block(input, block, default_chunks(block.extents()));
  };
  const BuildFn build = [&](double* seconds) -> std::optional<BuildCounters> {
    const Timer timer;
    ParallelCubeReport report = [&] {
      obs::Span span("bench", "build");
      return run_parallel_cube(run.sizes, log_splits, model, provider,
                               /*collect_result=*/true);
    }();
    *seconds = timer.elapsed_seconds();
    if (!report.cube || !compare_cubes(reference, *report.cube).empty()) {
      return std::nullopt;
    }
    return counters_of(report);
  };
  BuildTimes times = time_builds(run, build, out);
  if (run.traced && run.workload->name == std::string("build-d25")) {
    // The plain single-threaded baseline: SUM on a one-thread pool.
    ThreadPool single(1);
    AggregateOptions options;
    options.pool = &single;
    std::vector<double> seq1;
    for (int i = 0; i < 3; ++i) {
      const Timer timer;
      const CubeResult cube =
          build_cube_sequential(input, nullptr, AggregateOp::kSum, options);
      seq1.push_back(timer.elapsed_seconds());
    }
    const double seq1_s = median(seq1);
    out.metric("core.seq1_build_s", seq1_s, "s");
    out.metric("core.parallel_efficiency",
               ratio(seq1_s, 4.0 * median(times.untraced)), "ratio");
  }
  report_build_layers(run, times, out);
}

void run_sequential_max(const Run& run, Output& out) {
  const SparseArray input =
      timed_setup(run, [&] { return generate_input(run); }, out);
  out.metric("io.input_nnz", static_cast<double>(input.nnz()), "count");
  const CubeResult expected = max_projection(input);
  const CostModel model = bench::paper_model();
  const BuildFn build = [&](double* seconds) -> std::optional<BuildCounters> {
    BuildStats stats;
    const Timer timer;
    const CubeResult cube = [&] {
      obs::Span span("bench", "build");
      return build_cube_sequential(input, &stats, AggregateOp::kMax);
    }();
    *seconds = timer.elapsed_seconds();
    if (!compare_cubes(expected, cube).empty()) return std::nullopt;
    return counters_of(stats, model);
  };
  BuildTimes times = time_builds(run, build, out);
  report_build_layers(run, times, out);
}

// --------------------------------------------------------------- serving

/// One measured stretch of the closed loop: every client runs either
/// `queries` queries or, when that is 0, until `seconds` have passed.
struct Phase {
  bool traced = false;
  std::int64_t queries = 0;
  double seconds = 0;
};

struct ClientLog {
  // Indexed by phase.
  std::vector<std::vector<float>> latency_us;
  std::vector<std::vector<std::uint8_t>> kind;
};

struct ServeResult {
  std::vector<Phase> phases;
  std::vector<ClientLog> clients;
  double phase_seconds[2] = {0, 0};  // wall seconds, by traced
  std::int64_t phase_queries[2] = {0, 0};
};

/// Runs the closed loop: `gens.size()` client threads, each executing its
/// own generator's next query and waiting for the reply. Every
/// `check_every`-th reply is compared with the oracle engine's, outside
/// the timed interval. Phases start and end together (a barrier), which
/// is also where tracing is switched.
ServeResult serve(QueryEngine& engine, QueryEngine& oracle,
                  std::vector<WorkloadGenerator>& gens,
                  const std::vector<Phase>& phases, int check_every,
                  std::atomic<std::int64_t>& served, Output& out) {
  const int clients = static_cast<int>(gens.size());
  ServeResult result;
  result.phases = phases;
  result.clients.resize(gens.size());
  std::vector<std::uint64_t> stamps;
  stamps.reserve(phases.size() + 1);
  auto on_phase_boundary = [&]() noexcept {
    stamps.push_back(obs::trace_now_ns());
    set_tracing(stamps.size() <= phases.size() &&
                phases[stamps.size() - 1].traced);
  };
  std::barrier sync(clients, on_phase_boundary);
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> failed{0};
  std::vector<std::string> errors(gens.size());

  const auto client = [&](int id) {
    obs::set_thread_identity("client-" + std::to_string(id),
                             obs::kTidClientBase + id);
    ClientLog& log = result.clients[static_cast<std::size_t>(id)];
    WorkloadGenerator& gen = gens[static_cast<std::size_t>(id)];
    // Reserved, not touched: resident memory grows with the samples taken
    // and never jumps when a vector would have doubled.
    log.latency_us.resize(phases.size());
    log.kind.resize(phases.size());
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const auto samples =
          phases[p].queries > 0
              ? static_cast<std::size_t>(phases[p].queries)
              : static_cast<std::size_t>(phases[p].seconds *
                                         kMaxQueriesPerClientSecond);
      log.latency_us[p].reserve(samples);
      log.kind[p].reserve(samples);
    }
    for (std::size_t p = 0; p < phases.size(); ++p) {
      sync.arrive_and_wait();
      const Phase& phase = phases[p];
      const std::uint64_t deadline =
          stamps[p] + static_cast<std::uint64_t>(phase.seconds * 1e9);
      for (std::int64_t i = 0;
           phase.queries > 0 ? i < phase.queries
                             : obs::trace_now_ns() < deadline;
           ++i) {
        const Query query = gen.next();
        attempted.fetch_add(1, std::memory_order_relaxed);
        try {
          const Timer timer;
          std::shared_ptr<const QueryResult> reply;
          {
            obs::Span span("bench", "query");
            reply = engine.execute(query);
          }
          const double micros = timer.elapsed_seconds() * 1e6;
          log.latency_us[p].push_back(static_cast<float>(micros));
          log.kind[p].push_back(static_cast<std::uint8_t>(query.kind));
          if (i % check_every == 0 && !(*oracle.execute(query) == *reply)) {
            failed.fetch_add(1, std::memory_order_relaxed);
            errors[static_cast<std::size_t>(id)] =
                "reply differs from the oracle: " + query.cache_key();
          }
        } catch (const std::exception& error) {
          failed.fetch_add(1, std::memory_order_relaxed);
          errors[static_cast<std::size_t>(id)] = error.what();
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sync.arrive_and_wait();
  };
  std::vector<std::thread> threads;
  for (int id = 0; id < clients; ++id) threads.emplace_back(client, id);
  for (std::thread& thread : threads) thread.join();
  set_tracing(false);

  for (std::size_t p = 0; p < phases.size(); ++p) {
    const int t = phases[p].traced ? 1 : 0;
    result.phase_seconds[t] +=
        static_cast<double>(stamps[p + 1] - stamps[p]) * 1e-9;
    for (const ClientLog& log : result.clients) {
      result.phase_queries[t] +=
          static_cast<std::int64_t>(log.latency_us[p].size());
    }
  }
  out.attempted += attempted.load();
  out.fail(*std::max_element(errors.begin(), errors.end()), failed.load());
  return result;
}

/// One timed phase, or in the traced pass four untraced and four traced
/// phases alternating. The untraced ones only give the overhead its base;
/// spreading them over the pass lets both sides see the same replans.
std::vector<Phase> serve_phases(const Run& run) {
  if (!run.traced) return {Phase{false, 0, run.seconds}};
  const std::int64_t n = run.traced_queries() / 4;
  std::vector<Phase> phases;
  for (int i = 0; i < 4; ++i) {
    phases.push_back(Phase{false, n / 4, 0});
    phases.push_back(Phase{true, n, 0});
  }
  return phases;
}

std::vector<WorkloadGenerator> make_generators(
    const std::function<WorkloadGenerator(WorkloadSpec)>& make, int clients,
    double zipf, std::uint64_t seed) {
  std::vector<WorkloadGenerator> gens;
  for (int i = 0; i < clients; ++i) {
    WorkloadSpec spec;
    spec.skew = WorkloadSpec::Skew::kZipfian;
    spec.zipf_exponent = zipf;
    spec.seed = seed + static_cast<std::uint64_t>(i);
    spec.max_universe = 4096;
    gens.push_back(make(spec));
  }
  return gens;
}

void warm_up(QueryEngine& engine, WorkloadGenerator gen, int queries) {
  set_tracing(false);
  for (int i = 0; i < queries; ++i) engine.execute(gen.next());
}

void report_serving(const Run& run, const ServeResult& result,
                    const serving::ServingStats& before,
                    const serving::ServingStats& after, Output& out) {
  std::vector<float> all;  // untraced
  std::vector<float> by_kind[serving::kNumQueryKinds];
  // Median latency of each phase, by traced. The overhead compares their
  // medians, so one phase unlike the rest (on serve-partial-replan the
  // first, before any replan) does not move it.
  std::vector<double> phase_p50_us[2];
  for (std::size_t p = 0; p < result.phases.size(); ++p) {
    const bool traced = result.phases[p].traced;
    std::vector<float> phase;
    for (const ClientLog& log : result.clients) {
      phase.insert(phase.end(), log.latency_us[p].begin(),
                   log.latency_us[p].end());
      for (std::size_t i = 0; !traced && i < log.kind[p].size(); ++i) {
        by_kind[log.kind[p][i]].push_back(log.latency_us[p][i]);
      }
    }
    if (!traced) all.insert(all.end(), phase.begin(), phase.end());
    phase_p50_us[traced ? 1 : 0].push_back(quantile(phase, 0.5));
  }
  if (run.traced) {
    out.metric("obs.trace_overhead_pct",
               trace_overhead_pct(phase_p50_us[0], phase_p50_us[1]), "%");
  }
  out.metric("op_samples", static_cast<double>(all.size()), "count");
  out.metric("ops_per_s",
             ratio(static_cast<double>(result.phase_queries[0]),
                   result.phase_seconds[0]),
             "1/s");
  out.metric("op_p50_us", quantile(all, 0.5), "us");
  out.metric("op_p90_us", quantile(all, 0.9), "us");
  out.metric("op_p99_us", quantile(all, 0.99), "us");
  out.metric("serving.p999_us", quantile(all, 0.999), "us");
  static const char* const kKindP99[] = {
      "serving.point_p99_us", "serving.slice_p99_us", "serving.dice_p99_us",
      "serving.rollup_p99_us", "serving.topk_p99_us"};
  for (int k = 0; k < serving::kNumQueryKinds; ++k) {
    out.metric(kKindP99[k], quantile(by_kind[k], 0.99), "us");
  }
  const auto delta = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a);
  };
  const double queries = delta(before.queries, after.queries);
  const double hits = delta(before.cache.hits, after.cache.hits);
  const double lookups = hits + delta(before.cache.misses, after.cache.misses);
  out.metric("serving.cache_hit_rate", ratio(hits, lookups), "ratio");
  out.metric("serving.cache_evictions",
             delta(before.cache.evictions, after.cache.evictions), "count");
  out.metric("serving.cells_per_query",
             ratio(delta(before.cells_scanned, after.cells_scanned), queries),
             "cells");
  out.metric("serving.route_direct_frac",
             ratio(delta(before.routed_direct, after.routed_direct), queries),
             "ratio");
  out.metric("serving.route_ancestor_frac",
             ratio(delta(before.routed_ancestor, after.routed_ancestor),
                   queries),
             "ratio");
  out.metric("serving.route_input_frac",
             ratio(delta(before.routed_input, after.routed_input), queries),
             "ratio");
}

bench::Attribution report_attribution(Output& out);

/// The full 64^4 cube built by the parallel driver during setup, served
/// through a 4 MiB hot-slice cache to four Zipf clients.
void run_serve_full(const Run& run, Output& out) {
  struct Setup {
    SparseArray input;
    BuildCounters build;
    std::unique_ptr<QueryEngine> engine;
  };
  const CostModel model = bench::paper_model();
  Setup setup = timed_setup(
      run, [&] {
        SparseArray input = generate_input(run);
        const std::vector<int> log_splits =
            greedy_partition(run.sizes, kLogRanks);
        ParallelCubeReport report = [&] {
          obs::Span span("bench", "build");
          return run_parallel_cube(
              run.sizes, log_splits, model,
              [&input](int, const BlockRange& block) {
                obs::Span provide("bench", "provide_block");
                return extract_block(input, block,
                                     default_chunks(block.extents()));
              },
              /*collect_result=*/true);
        }();
        QueryEngineOptions options;
        options.cache_budget_bytes = std::int64_t{4} << 20;
        auto engine = std::make_unique<QueryEngine>(
            std::make_shared<const CubeResult>(std::move(*report.cube)),
            options);
        return Setup{std::move(input), counters_of(report), std::move(engine)};
      },
      out);
  set_tracing(false);
  out.metric("io.input_nnz", static_cast<double>(setup.input.nnz()), "count");
  report_build_counters(setup.build, out);

  QueryEngineOptions oracle_options;
  oracle_options.cache_budget_bytes = 0;
  QueryEngine oracle(
      std::make_shared<const CubeResult>(reference_cube(setup.input)),
      oracle_options);
  ++out.attempted;
  if (!compare_cubes(oracle.snapshot(), setup.engine->snapshot()).empty()) {
    out.fail("served cube differs from the reference cube");
  }
  const CubeResult& cube = setup.engine->snapshot();
  const auto make = [&cube](WorkloadSpec spec) {
    return WorkloadGenerator(cube, spec);
  };
  std::vector<WorkloadGenerator> gens = make_generators(make, 4, 1.25,
                                                        run.seed);
  warm_up(*setup.engine, make_generators(make, 1, 1.25, run.seed + 1000)[0],
          run.smoke ? 500 : 50'000);

  if (run.traced) {
    obs::Tracer::instance().set_buffer_capacity(
        run.traced_queries() * kClientTraceRecordsPerQuery);
  }
  std::atomic<std::int64_t> served{0};
  const serving::ServingStats before = setup.engine->stats();
  ServeResult result =
      serve(*setup.engine, oracle, gens, serve_phases(run),
            run.traced ? 1 : kCheckEvery, served, out);
  report_serving(run, result, before, setup.engine->stats(), out);
  if (run.traced) report_attribution(out);
}

std::int64_t full_cube_bytes(const CubeLattice& lattice) {
  std::int64_t cells = 0;
  for (DimSet view : lattice.all_views()) {
    if (view != DimSet::full(lattice.ndims())) cells += lattice.view_cells(view);
  }
  return cells * static_cast<std::int64_t>(sizeof(Value));
}

/// A 5-D partial cube (HRU greedy start), three Zipf clients with the
/// cache off, and one replanner swapping the materialized set at fixed
/// query-count marks.
void run_serve_partial(const Run& run, Output& out) {
  struct Setup {
    std::shared_ptr<const SparseArray> input;
    std::unique_ptr<QueryEngine> engine;
  };
  const CubeLattice lattice(run.sizes);
  Setup setup = timed_setup(
      run, [&] {
        auto input = std::make_shared<const SparseArray>(generate_input(run));
        auto partial = std::make_shared<const PartialCube>(PartialCube::build(
            input, select_views_greedy(lattice, 3).views));
        QueryEngineOptions options;
        options.cache_budget_bytes = 0;
        return Setup{input, std::make_unique<QueryEngine>(partial, options)};
      },
      out);
  set_tracing(false);
  out.metric("io.input_nnz", static_cast<double>(setup.input->nnz()),
             "count");
  QueryEngineOptions oracle_options;
  oracle_options.cache_budget_bytes = 0;
  QueryEngine oracle(
      std::make_shared<const CubeResult>(reference_cube(*setup.input)),
      oracle_options);
  QueryEngine& engine = *setup.engine;
  const std::vector<std::int64_t> sizes = run.sizes;
  const auto make = [&sizes](WorkloadSpec spec) {
    return WorkloadGenerator(sizes, spec);
  };
  constexpr int kClients = 3;  // plus the replanner: 4 runnable threads
  std::vector<WorkloadGenerator> gens = make_generators(make, kClients, 1.1,
                                                        run.seed);
  warm_up(engine, make_generators(make, 1, 1.1, run.seed + 1000)[0],
          run.smoke ? 50 : 200);

  const std::vector<Phase> phases = serve_phases(run);
  std::int64_t phase_queries = 0;
  for (const Phase& phase : phases) phase_queries += phase.queries;
  // Marks every `replan_every` served queries, sized so all kReplans fall
  // inside the measured stretch (untraced: 60k queries, about 6 s).
  const std::int64_t replan_every =
      run.traced ? kClients * phase_queries / (kReplans + 1)
                 : (run.smoke ? 60 : 3'000);
  if (run.traced) {
    obs::Tracer::instance().set_buffer_capacity(
        run.traced_queries() * kClientTraceRecordsPerQuery);
  }
  const std::int64_t full_bytes = full_cube_bytes(lattice);
  std::atomic<std::int64_t> served{0};
  std::atomic<bool> stop{false};
  std::vector<double> replan_s;
  std::vector<QueryEngine::ReplanReport> replans;
  std::int64_t replan_attempted = 0;
  std::int64_t replan_failed = 0;
  std::string replan_error;
  std::thread replanner([&] {
    obs::set_thread_identity("replanner", obs::kTidClientBase + kClients);
    for (int r = 0; r < kReplans && !stop.load(); ++r) {
      while (!stop.load() &&
             served.load(std::memory_order_relaxed) < (r + 1) * replan_every) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (stop.load()) break;
      // Alternates between 30% and 60% of the full cube's bytes.
      const std::int64_t budget = (r % 2 == 0 ? 3 : 6) * full_bytes / 10;
      ++replan_attempted;
      try {
        const Timer timer;
        QueryEngine::ReplanReport report = [&] {
          obs::Span span("bench", "replan");
          return engine.replan(budget);
        }();
        const double elapsed = timer.elapsed_seconds();
        if (report.certified_bytes > budget ||
            report.materialized_bytes > budget) {
          ++replan_failed;
          replan_error = "replan exceeded its byte budget";
          continue;
        }
        replan_s.push_back(elapsed);
        replans.push_back(std::move(report));
      } catch (const std::exception& error) {
        ++replan_failed;
        replan_error = error.what();
      }
    }
  });

  const serving::ServingStats before = engine.stats();
  ServeResult result = serve(engine, oracle, gens, phases,
                             run.traced ? 1 : kCheckEvery, served, out);
  stop.store(true);
  replanner.join();

  out.attempted += replan_attempted;
  out.fail(replan_error, replan_failed);
  report_serving(run, result, before, engine.stats(), out);
  out.metric("replans", static_cast<double>(replans.size()), "count");
  out.metric("replan_s.p50", median(replan_s), "s");
  double cells = 0;
  double materialized = 0;
  double certified = 0;
  for (const QueryEngine::ReplanReport& report : replans) {
    cells += static_cast<double>(report.build_cells_scanned);
    materialized += static_cast<double>(report.materialized_bytes);
    certified += static_cast<double>(report.certified_bytes);
  }
  const double n = static_cast<double>(replans.size());
  out.metric("serving.replan_build_cells", ratio(cells, n), "cells");
  out.metric("serving.replan_materialized_mb", ratio(materialized, n) / 1e6,
             "MB");
  out.metric("serving.replan_certified_mb", ratio(certified, n) / 1e6, "MB");

  // Planner layers, timed on the final state of the run.
  const std::vector<std::int64_t> freq = engine.view_frequencies();
  const std::int64_t budget = 6 * full_bytes / 10;
  ViewSelection selection;
  out.metric("core.select_views_s", timed_median([&] {
               selection = select_views_weighted(lattice, budget, freq,
                                                 sizeof(Value));
             }),
             "s");
  out.metric("lattice.ancestor_table_s", timed_median([&] {
               AncestorTable::build(lattice, selection.views);
             }),
             "s");
  if (run.traced) report_attribution(out);
}

// ------------------------------------------------------------ attribution

/// Per-operation layer self times from the traced pass's capture, and
/// each layer's share of the bench/build or bench/query wall time.
bench::Attribution report_attribution(Output& out) {
  const bench::Attribution a =
      bench::attribute(obs::Tracer::instance().capture());
  const double builds = static_cast<double>(a.parallel_builds);
  const double seq_builds = static_cast<double>(a.builds - a.parallel_builds);
  const double wall = a.build_wall_s;
  const auto layer = [&](const char* name, const char* pct_name,
                         double total, double count, double base) {
    out.metric(name, ratio(total, count), "s");
    out.metric(pct_name, ratio(total, base) * 100.0, "%");
  };
  out.metric("io.generate_s", ratio(a.generate_s,
                                    static_cast<double>(a.generates)),
             "s");
  layer("io.extract_s", "io.extract_pct", a.extract_s, builds, wall);
  layer("array.scan_s", "array.scan_pct", a.scan_s, builds, wall);
  out.metric("array.scan_s.sum", ratio(a.scan_sum_s, builds), "s");
  layer("minimpi.reduce_s", "minimpi.reduce_pct", a.reduce_s, builds, wall);
  out.metric("minimpi.reduce_s.sum", ratio(a.reduce_sum_s, builds), "s");
  out.metric("minimpi.rank_skew", ratio(a.rank_skew_sum, builds), "ratio");
  layer("core.plan_s", "core.plan_pct", a.plan_s, builds, wall);
  layer("core.spawn_join_s", "core.spawn_join_pct", a.spawn_join_s, builds,
        wall);
  layer("core.gather_s", "core.gather_pct", a.gather_s, builds, wall);
  layer("core.seq_build_s", "core.seq_build_pct", a.seq_build_s, seq_builds,
        wall);
  layer("serving.compute_s", "serving.compute_pct", a.compute_s,
        static_cast<double>(a.queries), a.query_wall_s);
  const double build_frac = ratio(a.build_unattributed_s, a.build_wall_s);
  const double query_frac = ratio(a.query_unattributed_s, a.query_wall_s);
  out.metric("bench.unattributed_frac", std::max(build_frac, query_frac),
             "ratio");
  out.metric("obs.records", static_cast<double>(a.records), "count");
  out.metric("obs.dropped_records", static_cast<double>(a.dropped), "count");
  return a;
}

void report_build_layers(const Run& run, BuildTimes& times, Output& out) {
  if (run.traced) {
    out.metric("obs.trace_overhead_pct",
               trace_overhead_pct(times.untraced, times.traced), "%");
  }
  report_builds(times, out);
  if (!run.traced) return;
  const bench::Attribution a = report_attribution(out);
  const BuildCounters c = times.counters.value_or(BuildCounters{});
  out.metric("array.cells_per_s",
             ratio(static_cast<double>(c.cells_scanned) *
                       static_cast<double>(a.parallel_builds),
                   a.scan_sum_s),
             "1/s");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("cubist_bench",
                 "Runs one end-to-end cubist workload and prints "
                 "`workload metric value unit` lines (see README.md).");
  std::string* name = args.add_string("workload", "", "workload name");
  std::int64_t* seed = args.add_int("seed", 1, "input and stream seed");
  double* seconds =
      args.add_double("seconds", 10.0, "measured seconds (untraced runs)");
  bool* smoke = args.add_bool("smoke", false, "tiny sizes, no timing gates");
  if (!args.parse(argc, argv)) return 2;

  Run run;
  for (const Workload& workload : kWorkloads) {
    if (*name == workload.name) run.workload = &workload;
  }
  if (run.workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name->c_str());
    return 2;
  }
  if (*seed < 0 || *seconds <= 0) {
    std::fprintf(stderr, "--seed must be >= 0 and --seconds > 0\n");
    return 2;
  }
  run.seed = static_cast<std::uint64_t>(*seed);
  run.seconds = *seconds;
  run.smoke = *smoke;
  run.sizes = run.smoke ? run.workload->smoke_sizes : run.workload->sizes;
  // CUBIST_TRACE=1 selects the traced pass; rank threads are sized before
  // any of them starts, clients again before they start.
  run.traced = obs::Tracer::enabled();
  if (run.traced) {
    obs::Tracer::instance().set_buffer_capacity(kRankTraceRecords);
    obs::set_thread_identity("main", obs::kTidMain);
  }

  Output out(run.workload->name);
  try {
    switch (run.workload->kind) {
      case Kind::kParallelBuild: run_parallel_build(run, out); break;
      case Kind::kSequentialMax: run_sequential_max(run, out); break;
      case Kind::kServeFull: run_serve_full(run, out); break;
      case Kind::kServePartial: run_serve_partial(run, out); break;
    }
  } catch (const std::exception& error) {
    ++out.attempted;
    out.fail(error.what());
  }
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.finish();
  return 0;
}
