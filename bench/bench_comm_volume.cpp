// Lemma 1 / Theorem 3 validation: measured communication volume (exact
// byte counts from the run's event trace) versus the closed-form prediction,
// across every partition of 8 and 16 processors over a 4-D cube.
//
// The table's "match" column must read "yes" on every row — the
// measured-equals-predicted property is also enforced by an abort here
// and by the unit tests.
#include "bench_util.h"

namespace cubist::bench {
namespace {

constexpr std::uint64_t kSeed = 7;
const std::vector<std::int64_t> kSizes{32, 32, 32, 32};

FigureTable& volume_table() {
  static FigureTable table(
      "Communication volume: measured (event trace) vs Theorem 3 closed "
      "form, 32^4 dataset",
      {"grid", "p", "predicted_MB", "measured_MB", "match", "sim_time_s"});
  return table;
}

void BM_CommVolume(benchmark::State& state) {
  const int log_p = static_cast<int>(state.range(0));
  const auto partitions =
      enumerate_partitions(static_cast<int>(kSizes.size()), log_p);
  const auto& splits = partitions[static_cast<std::size_t>(state.range(1))];
  const BlockProvider provider =
      DatasetCache::instance().provider(kSizes, 0.10, kSeed);

  ParallelCubeReport report;
  for (auto _ : state) {
    report = run_parallel_cube(kSizes, splits, paper_model(), provider,
                               /*collect_result=*/false);
    state.SetIterationTime(report.construction_seconds);
  }
  const std::int64_t predicted =
      total_volume_elements(kSizes, splits) *
      static_cast<std::int64_t>(sizeof(Value));
  const bool match = predicted == report.construction_bytes;
  CUBIST_ASSERT(match, "measured volume diverged from Theorem 3 for grid "
                           << ProcGrid(splits).to_string());
  // Per-view check (Lemma 1), too.
  for (const auto& [mask, elements] : volume_by_view_elements(kSizes, splits)) {
    const std::int64_t expected =
        elements * static_cast<std::int64_t>(sizeof(Value));
    const auto it = report.bytes_by_view.find(mask);
    const std::int64_t measured =
        it == report.bytes_by_view.end() ? 0 : it->second;
    CUBIST_ASSERT(measured == expected,
                  "per-view volume diverged for view mask " << mask);
  }
  volume_table().add(
      {ProcGrid(splits).to_string(), std::to_string(1 << log_p),
       TextTable::fixed(static_cast<double>(predicted) / 1e6, 3),
       TextTable::fixed(static_cast<double>(report.construction_bytes) / 1e6,
                        3),
       match ? "yes" : "NO",
       TextTable::fixed(report.construction_seconds, 3)});
  state.counters["MB"] = static_cast<double>(predicted) / 1e6;
}

FigureTable& engine_table() {
  static FigureTable table(
      "Communication engine: logical vs wire bytes and virtual clock "
      "across sparsities, adaptive encoding on/off (3-D grid, p=8)",
      {"shape", "density", "encode", "logical_MB", "wire_MB", "wire_saving",
       "sim_time_s"});
  return table;
}

std::string shape_name(const std::vector<std::int64_t>& sizes) {
  std::string name;
  for (std::int64_t s : sizes) {
    if (!name.empty()) name += 'x';
    name += std::to_string(s);
  }
  return name;
}

/// One Figure-7-style construction with the engine knob under study. The
/// committed BENCH_comm.json (tools/bench_report.py --comm) is generated
/// from these cases; CI smoke runs only the small shape.
void BM_CommEngine(benchmark::State& state,
                   const std::vector<std::int64_t>& sizes, double density,
                   bool encode) {
  const std::vector<int> splits{1, 1, 1, 0};
  const BlockProvider provider =
      DatasetCache::instance().provider(sizes, density, kSeed);
  ParallelOptions options;
  options.reduce.encode_wire = encode;
  ParallelCubeReport report;
  for (auto _ : state) {
    report = run_parallel_cube(sizes, splits, paper_model(), provider,
                               /*collect_result=*/false, options);
    state.SetIterationTime(report.construction_seconds);
  }
  CUBIST_ASSERT(report.construction_wire_bytes <= report.construction_bytes,
                "wire bytes exceeded logical bytes");
  CUBIST_ASSERT(encode ||
                    report.construction_wire_bytes == report.construction_bytes,
                "disabled codec must ship exactly the logical bytes");
  const double logical_mb =
      static_cast<double>(report.construction_bytes) / 1e6;
  const double wire_mb =
      static_cast<double>(report.construction_wire_bytes) / 1e6;
  const double saving =
      logical_mb > 0 ? 1.0 - wire_mb / logical_mb : 0.0;
  engine_table().add(
      {shape_name(sizes),
       TextTable::fixed(density * 100.0, 0) + "%", encode ? "on" : "off",
       TextTable::fixed(logical_mb, 3), TextTable::fixed(wire_mb, 3),
       TextTable::fixed(saving * 100.0, 1) + "%",
       TextTable::fixed(report.construction_seconds, 3)});
  state.counters["density_pct"] = density * 100.0;
  state.counters["encode"] = encode ? 1.0 : 0.0;
  state.counters["logical_MB"] = logical_mb;
  state.counters["wire_MB"] = wire_mb;
  state.counters["sim_s"] = report.construction_seconds;
}

FigureTable& chunk_table() {
  static FigureTable table(
      "Pipelined reduction: message cap sweep (32^4, 10% density, 3-D "
      "grid)",
      {"cap_elements", "messages", "wire_MB", "sim_time_s"});
  return table;
}

/// Message-cap sweep: finer chunks pipeline the binomial tree
/// (lower clock) until per-message overhead dominates.
void BM_ReduceChunkSweep(benchmark::State& state) {
  const std::int64_t cap = state.range(0);
  const std::vector<int> splits{1, 1, 1, 0};
  const BlockProvider provider =
      DatasetCache::instance().provider(kSizes, 0.10, kSeed);
  ParallelOptions options;
  options.reduce.max_message_elements = cap;
  ParallelCubeReport report;
  for (auto _ : state) {
    report = run_parallel_cube(kSizes, splits, paper_model(), provider,
                               /*collect_result=*/false, options);
    state.SetIterationTime(report.construction_seconds);
  }
  chunk_table().add(
      {cap == 0 ? "whole block" : std::to_string(cap),
       std::to_string(report.run.volume.total_messages),
       TextTable::fixed(
           static_cast<double>(report.construction_wire_bytes) / 1e6, 3),
       TextTable::fixed(report.construction_seconds, 3)});
  state.counters["messages"] =
      static_cast<double>(report.run.volume.total_messages);
  state.counters["sim_s"] = report.construction_seconds;
}

FigureTable& algorithm_table() {
  static FigureTable table(
      "Collective selection: forced reduction algorithms vs cost-tuned "
      "auto across density x group size (p=8)",
      {"shape", "point", "density", "algorithm", "chosen_groups",
       "logical_MB", "wire_MB", "sim_time_s"});
  return table;
}

/// "binomial:3 ring:1": how many axis groups picked each algorithm.
std::string chosen_summary(const std::map<ReduceAlgorithm, int>& counts) {
  std::string out;
  for (const auto& [algorithm, count] : counts) {
    if (!out.empty()) out += ' ';
    out += to_string(algorithm);
    out += ':';
    out += std::to_string(count);
  }
  return out.empty() ? "-" : out;
}

/// Publishes the cost model the comm benches run under as
/// "cost_model/<path>" keys of the JSON `context` block, so
/// tools/bench_report.py --comm records the values this binary actually
/// used. Reals always print with a decimal point, integers without.
void publish_cost_model() {
  const auto real = [](const std::string& key, double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%#.17g", value);
    ::benchmark::AddCustomContext("cost_model/" + key, text);
  };
  const auto integer = [](const std::string& key, std::int64_t value) {
    ::benchmark::AddCustomContext("cost_model/" + key,
                                  std::to_string(value));
  };
  const CostModel model = paper_model();
  real("update_rate_per_s", model.update_rate);
  real("scan_rate_per_s", model.scan_rate);
  real("link/latency_s", model.latency);
  real("link/overhead_s", model.overhead);
  real("link/bandwidth_Bps", model.bandwidth);
  integer("tuner/bytes_per_element", sizeof(Value));
  real("tuner/switch_margin", kTunerSwitchMargin);
  integer("tuner/ring_pipeline_factor", kRingPipelineFactor);
}

/// One sweep cell: a full construction with the reduction algorithm
/// forced (or kAuto for the tuner), fully certified — static schedule
/// verifier pre-flight, then the post-run audit: the recorded trace must
/// equal the tuned plan, with no send over its logical size on the wire.
/// The verifier's one replay covers every arrival order, since every
/// receive names its source (docs/ANALYSIS.md).
void BM_AlgorithmSweep(benchmark::State& state,
                       const std::vector<std::int64_t>& sizes,
                       const std::vector<int>& splits, double density,
                       ReduceAlgorithm algorithm, const std::string& point) {
  const BlockProvider provider =
      DatasetCache::instance().provider(sizes, density, kSeed);
  ParallelOptions options;
  options.reduce.algorithm = algorithm;
  options.audit = true;
  ParallelCubeReport report;
  for (auto _ : state) {
    report = run_parallel_cube(sizes, splits, paper_model(), provider,
                               /*collect_result=*/false, options);
    state.SetIterationTime(report.construction_seconds);
  }
  // One pick per (view, axis group): the groups of one view may differ.
  std::map<ReduceAlgorithm, int> chosen;
  for (const auto& [group, resolved] : report.reduce_algorithm_by_group) {
    ++chosen[resolved];
  }
  const double logical_mb =
      static_cast<double>(report.construction_bytes) / 1e6;
  const double wire_mb =
      static_cast<double>(report.construction_wire_bytes) / 1e6;
  algorithm_table().add(
      {shape_name(sizes), point, TextTable::fixed(density * 100.0, 0) + "%",
       to_string(algorithm), chosen_summary(chosen),
       TextTable::fixed(logical_mb, 3), TextTable::fixed(wire_mb, 3),
       TextTable::fixed(report.construction_seconds, 3)});
  state.counters["density_pct"] = density * 100.0;
  state.counters["logical_MB"] = logical_mb;
  state.counters["wire_MB"] = wire_mb;
  state.counters["sim_s"] = report.construction_seconds;
  state.counters["groups_binomial"] =
      static_cast<double>(chosen[ReduceAlgorithm::kBinomial]);
  state.counters["groups_ring"] =
      static_cast<double>(chosen[ReduceAlgorithm::kRing]);
}

void register_benchmarks() {
  const std::vector<std::int64_t> fig7_sizes{64, 64, 64, 64};
  const std::vector<std::int64_t> smoke_sizes{16, 16, 16, 16};
  for (const auto& sizes : {fig7_sizes, smoke_sizes}) {
    const std::string shape =
        sizes == smoke_sizes ? "smoke" : "fig7";
    for (double density : kDensities) {
      for (bool encode : {false, true}) {
        const std::string name =
            "BM_CommEngine/" + shape + "/d" +
            std::to_string(static_cast<int>(density * 100)) +
            (encode ? "/enc" : "/raw");
        ::benchmark::RegisterBenchmark(
            name.c_str(),
            [sizes, density, encode](benchmark::State& state) {
              BM_CommEngine(state, sizes, density, encode);
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  // Algorithm sweep: (view size via shape) x density x group size, each
  // forced algorithm plus the tuner, so the algorithms differ only in
  // schedule.
  struct SweepPoint {
    const char* name;
    std::vector<int> splits;
  };
  // Group-size axis: g8 puts all 8 ranks in one reduction group along
  // dim 0 (one big view), g4x2 splits them 4 along dim 0 and 2 along
  // dim 1 (several views with group sizes 4 and 2).
  const SweepPoint sweep_points[] = {
      {"g8-flat", {3, 0, 0, 0}},
      {"g4x2-flat", {2, 1, 0, 0}},
  };
  for (const auto& sizes : {fig7_sizes, smoke_sizes}) {
    const std::string shape = sizes == smoke_sizes ? "smoke" : "fig7";
    for (const SweepPoint& point : sweep_points) {
      for (double density : {0.5, 0.25}) {
        for (ReduceAlgorithm algorithm :
             {ReduceAlgorithm::kBinomial, ReduceAlgorithm::kRing,
              ReduceAlgorithm::kAuto}) {
          const std::string name =
              "BM_AlgorithmSweep/" + shape + "/" + point.name + "/d" +
              std::to_string(static_cast<int>(density * 100)) + "/" +
              to_string(algorithm);
          const std::string point_name = point.name;
          const std::vector<int> splits = point.splits;
          ::benchmark::RegisterBenchmark(
              name.c_str(),
              [sizes, splits, density, algorithm,
               point_name](benchmark::State& state) {
                BM_AlgorithmSweep(state, sizes, splits, density, algorithm,
                                  point_name);
              })
              ->UseManualTime()
              ->Iterations(1)
              ->Unit(benchmark::kMillisecond);
        }
      }
    }
  }
  for (std::int64_t cap : {0, 1024, 4096, 16384, 65536}) {
    ::benchmark::RegisterBenchmark("BM_ReduceChunkSweep", BM_ReduceChunkSweep)
        ->Arg(cap)
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (int log_p : {3, 4}) {
    const auto partitions =
        enumerate_partitions(static_cast<int>(kSizes.size()), log_p);
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      // Skip grids splitting a dimension beyond its extent.
      bool feasible = true;
      for (std::size_t d = 0; d < partitions[i].size(); ++d) {
        if ((std::int64_t{1} << partitions[i][d]) > kSizes[d]) {
          feasible = false;
        }
      }
      if (!feasible) continue;
      ::benchmark::RegisterBenchmark("BM_CommVolume", BM_CommVolume)
          ->Args({log_p, static_cast<std::int64_t>(i)})
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_tables() {
  volume_table().print();
  engine_table().print();
  algorithm_table().print();
  chunk_table().print();
}

}  // namespace
}  // namespace cubist::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  cubist::bench::publish_cost_model();
  cubist::bench::register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  cubist::bench::print_tables();
  return 0;
}
