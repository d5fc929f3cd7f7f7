// Communication-frequency ablation (the authors' companion study: "Impact
// of Data Distribution, Level of Parallelism, and Communication Frequency
// on Parallel Data Cube Construction").
//
// The reduction message cap varies from whole-block down to a few cells
// per message. Volume (Theorem 3) is invariant; the message count and the
// per-message overhead/latency grow, so simulated time rises as messages
// get finer — the companion paper's observation that over-fine
// communication granularity destroys parallel performance.
#include "bench_util.h"

namespace cubist::bench {
namespace {

const std::vector<std::int64_t> kSizes{64, 64, 64, 64};
constexpr double kDensity = 0.10;
constexpr std::uint64_t kSeed = 2003;

FigureTable& frequency_table() {
  static FigureTable table(
      "Communication frequency: 64^4, 8 processors (2x2x2x1), 10% "
      "sparsity, varying reduction message size",
      {"elements_per_msg", "messages", "comm_MB", "sim_time_s",
       "vs_whole_block"});
  return table;
}

void BM_CommFrequency(benchmark::State& state) {
  const std::int64_t cap = state.range(0);
  const BlockProvider provider =
      DatasetCache::instance().provider(kSizes, kDensity, kSeed);
  ParallelOptions options;
  options.reduce.max_message_elements = cap;
  ParallelCubeReport report;
  for (auto _ : state) {
    report = run_parallel_cube(kSizes, {1, 1, 1, 0}, paper_model(), provider,
                               false, options);
    state.SetIterationTime(report.construction_seconds);
  }
  static double whole_block_seconds = 0.0;
  if (cap == 0) whole_block_seconds = report.construction_seconds;
  frequency_table().add(
      {cap == 0 ? "whole block" : TextTable::with_thousands(cap),
       TextTable::with_thousands(report.run.volume.total_messages),
       TextTable::fixed(static_cast<double>(report.construction_bytes) / 1e6,
                        1),
       TextTable::fixed(report.construction_seconds, 2),
       whole_block_seconds > 0
           ? TextTable::fixed(
                 report.construction_seconds / whole_block_seconds, 2) + "x"
           : "-"});
  state.counters["messages"] =
      static_cast<double>(report.run.volume.total_messages);
}

// Register whole-block first so the ratio column has its baseline.
BENCHMARK(BM_CommFrequency)
    ->Arg(0)
    ->Arg(65536)
    ->Arg(4096)
    ->Arg(512)
    ->Arg(64)
    ->Arg(8)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void print_tables() { frequency_table().print(); }

}  // namespace
}  // namespace cubist::bench

CUBIST_BENCH_MAIN(cubist::bench::print_tables)
