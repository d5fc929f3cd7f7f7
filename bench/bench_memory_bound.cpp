// Theorems 1/2/4/5 validation: measured live-memory high-water of the
// real builders versus the closed-form bounds.
//
// Theorem 1/4 say the peak is AT MOST the sum of the first-level view
// sizes (per processor, with partitioned extents); Theorems 2/5 say no
// maximal-reuse algorithm can do better — and indeed the measured peak
// EQUALS the bound (the first level itself reaches it).
#include "bench_util.h"

namespace cubist::bench {
namespace {

constexpr std::uint64_t kSeed = 17;

FigureTable& memory_table() {
  static FigureTable table(
      "Memory bound: measured peak vs Theorem 1 (sequential) and "
      "Theorem 4 (parallel, max over ranks)",
      {"dataset", "mode", "bound_MB", "measured_MB", "peak==bound"});
  return table;
}

const std::vector<std::vector<std::int64_t>>& shapes() {
  static const std::vector<std::vector<std::int64_t>> s{
      {64, 64, 64, 64}, {128, 64, 32, 16}, {64, 64, 64}, {256, 16, 4}};
  return s;
}

void BM_SequentialMemory(benchmark::State& state) {
  const auto& sizes = shapes()[static_cast<std::size_t>(state.range(0))];
  const SparseArray& input =
      DatasetCache::instance().global(sizes, 0.10, kSeed);
  BuildStats stats{};
  for (auto _ : state) {
    build_cube_sequential(input, &stats);
  }
  const std::int64_t bound =
      sequential_memory_bound(CubeLattice(sizes));
  CUBIST_ASSERT(stats.peak_live_bytes <= bound, "Theorem 1 violated");
  memory_table().add({Shape{sizes}.to_string(), "sequential",
                      TextTable::fixed(static_cast<double>(bound) / 1e6, 3),
                      TextTable::fixed(
                          static_cast<double>(stats.peak_live_bytes) / 1e6, 3),
                      stats.peak_live_bytes == bound ? "yes" : "no"});
  state.counters["peak_MB"] =
      static_cast<double>(stats.peak_live_bytes) / 1e6;
}

BENCHMARK(BM_SequentialMemory)
    ->DenseRange(0, 3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelMemory(benchmark::State& state) {
  const auto& sizes = shapes()[static_cast<std::size_t>(state.range(0))];
  const int log_p = 3;
  const auto splits = greedy_partition(sizes, log_p);
  const BlockProvider provider =
      DatasetCache::instance().provider(sizes, 0.10, kSeed);
  ParallelCubeReport report;
  for (auto _ : state) {
    report = run_parallel_cube(sizes, splits, paper_model(), provider, false);
  }
  const std::int64_t bound =
      parallel_memory_bound(CubeLattice(sizes), splits);
  CUBIST_ASSERT(report.max_peak_live_bytes <= bound, "Theorem 4 violated");
  memory_table().add(
      {Shape{sizes}.to_string(),
       "parallel p=8 (" + ProcGrid(splits).to_string() + ")",
       TextTable::fixed(static_cast<double>(bound) / 1e6, 3),
       TextTable::fixed(
           static_cast<double>(report.max_peak_live_bytes) / 1e6, 3),
       report.max_peak_live_bytes == bound ? "yes" : "no"});
  state.counters["peak_MB"] =
      static_cast<double>(report.max_peak_live_bytes) / 1e6;
}

BENCHMARK(BM_ParallelMemory)
    ->DenseRange(0, 3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void print_tables() { memory_table().print(); }

}  // namespace
}  // namespace cubist::bench

CUBIST_BENCH_MAIN(cubist::bench::print_tables)
