// Figure 6 / Theorem 8 reproduction: the greedy partitioner versus the
// exhaustive optimum and the worst grid.
//
// Two parts:
//  * model-level: on random dimension-size vectors, greedy volume ==
//    exhaustive-optimal volume (Theorem 8), and the spread to the worst
//    composition shows how much the choice matters;
//  * measured: for the Figure-7 dataset, an actual run of every distinct
//    grid shape on 8 processors, showing measured bytes and simulated
//    time per grid — the full version of the paper's three-way comparison;
//    and the two p = 4 grids on the 25% input, built alternately and
//    timed in wall time beside the virtual clock (BM_GridWallTime; its
//    /smoke case runs the same rounds on 16^4).
#include <algorithm>
#include <chrono>

#include "bench_util.h"

namespace cubist::bench {
namespace {

FigureTable& model_table() {
  static FigureTable table(
      "Partitioning (model): greedy vs exhaustive vs worst, random sizes",
      {"sizes", "p", "greedy_grid", "greedy_Melem", "optimal_Melem",
       "worst_Melem", "worst/greedy"});
  return table;
}

FigureTable& measured_table() {
  static FigureTable table(
      "Partitioning (measured): all grids of p=8 over 64^4 at 10% sparsity "
      "(virtual clock), and the p=4 grids at 25% (virtual clock and wall "
      "time: median [quartiles] of the alternating builds)",
      {"shape", "grid", "density", "comm_MB", "sim_time_s", "wall_p50_ms",
       "wall_q1_ms", "wall_q3_ms", "faster_rounds", "rank"});
  return table;
}

/// "2-dim": how many dimensions the grid splits.
std::string split_rank(const std::vector<int>& splits) {
  return std::to_string(splits.size() - static_cast<std::size_t>(std::count(
                                            splits.begin(), splits.end(), 0))) +
         "-dim";
}

/// The q-quantile of `samples`, interpolated between the two nearest
/// ranks.
double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double at = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (at - static_cast<double>(lo));
}

void BM_GreedyVsExhaustive(benchmark::State& state) {
  Xoshiro256ss rng(static_cast<std::uint64_t>(state.range(0)) + 1);
  std::vector<std::int64_t> sizes(4);
  for (auto& s : sizes) {
    s = static_cast<std::int64_t>(8 + rng.next_below(120));
  }
  std::sort(sizes.rbegin(), sizes.rend());
  const int log_p = static_cast<int>(state.range(1));
  std::vector<int> greedy;
  for (auto _ : state) {
    greedy = greedy_partition(sizes, log_p);
    benchmark::DoNotOptimize(greedy);
  }
  const auto optimal = exhaustive_partition(sizes, log_p);
  const auto worst = worst_partition(sizes, log_p);
  const auto volume = [&](const std::vector<int>& splits) {
    return static_cast<double>(total_volume_elements(sizes, splits)) / 1e6;
  };
  CUBIST_ASSERT(total_volume_elements(sizes, greedy) ==
                    total_volume_elements(sizes, optimal),
                "Theorem 8 violated");
  model_table().add({Shape{sizes}.to_string(), std::to_string(1 << log_p),
                     ProcGrid(greedy).to_string(),
                     TextTable::fixed(volume(greedy), 3),
                     TextTable::fixed(volume(optimal), 3),
                     TextTable::fixed(volume(worst), 3),
                     TextTable::fixed(volume(worst) / volume(greedy), 1)});
}

BENCHMARK(BM_GreedyVsExhaustive)
    ->ArgsProduct({{1, 2, 3}, {3, 4, 6}})
    ->Iterations(1);

void BM_MeasuredGridSweep(benchmark::State& state) {
  const std::vector<std::int64_t> sizes{64, 64, 64, 64};
  const auto partitions = enumerate_partitions(4, 3);
  const auto& splits = partitions[static_cast<std::size_t>(state.range(0))];
  const BlockProvider provider =
      DatasetCache::instance().provider(sizes, 0.10, 11);
  ParallelCubeReport report;
  for (auto _ : state) {
    report =
        run_parallel_cube(sizes, splits, paper_model(), provider, false);
    state.SetIterationTime(report.construction_seconds);
  }
  measured_table().add(
      {Shape{sizes}.to_string(), ProcGrid(splits).to_string(), "10%",
       TextTable::fixed(static_cast<double>(report.construction_bytes) / 1e6,
                        1),
       TextTable::fixed(report.construction_seconds, 2), "-", "-", "-", "-",
       split_rank(splits)});
  state.counters["comm_MB"] =
      static_cast<double>(report.construction_bytes) / 1e6;
}

/// The Figure-7 shape's two p = 4 grids, 2x2x1x1 (Theorem 8's greedy
/// pick) and 4x1x1x1, on the 25% input: kRounds timed builds of each,
/// alternating between the grids (and which goes first in a round) after
/// one untimed build of each; a grid's faster_rounds counts the rounds
/// whose build of it beat the other grid's. Messages between rank threads
/// cost almost nothing on this host, so wall time and the virtual clock
/// may rank the grids differently.
void BM_GridWallTime(benchmark::State& state,
                     const std::vector<std::int64_t>& sizes) {
  constexpr int kRounds = 21;
  const std::vector<std::vector<int>> grids{{1, 1, 0, 0}, {2, 0, 0, 0}};
  const std::vector<int> greedy = greedy_partition(sizes, 2);
  const BlockProvider provider =
      DatasetCache::instance().provider(sizes, 0.25, 11);
  std::vector<std::vector<double>> wall_ms(grids.size());
  std::vector<ParallelCubeReport> reports(grids.size());
  for (auto _ : state) {
    for (int round = -1; round < kRounds; ++round) {
      for (std::size_t k = 0; k < grids.size(); ++k) {
        const std::size_t g = round % 2 == 0 ? k : grids.size() - 1 - k;
        const auto start = std::chrono::steady_clock::now();
        reports[g] = run_parallel_cube(sizes, grids[g], paper_model(),
                                       provider, false);
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        if (round >= 0) wall_ms[g].push_back(elapsed.count());
      }
    }
  }
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const ParallelCubeReport& report = reports[g];
    const std::vector<double>& other = wall_ms[1 - g];
    int faster = 0;
    for (std::size_t r = 0; r < wall_ms[g].size(); ++r) {
      faster += wall_ms[g][r] < other[r] ? 1 : 0;
    }
    const std::string name = ProcGrid(grids[g]).to_string() +
                             (grids[g] == greedy ? " (Thm 8)" : "");
    measured_table().add(
        {Shape{sizes}.to_string(), name, "25%",
         TextTable::fixed(
             static_cast<double>(report.construction_bytes) / 1e6, 1),
         TextTable::fixed(report.construction_seconds, 2),
         TextTable::fixed(quantile(wall_ms[g], 0.5), 1),
         TextTable::fixed(quantile(wall_ms[g], 0.25), 1),
         TextTable::fixed(quantile(wall_ms[g], 0.75), 1),
         std::to_string(faster) + "/" + std::to_string(wall_ms[g].size()),
         split_rank(grids[g])});
    const std::string grid = ProcGrid(grids[g]).to_string();
    state.counters[grid + "_sim_s"] = report.construction_seconds;
    state.counters[grid + "_wall_p50_ms"] = quantile(wall_ms[g], 0.5);
    state.counters[grid + "_wall_q1_ms"] = quantile(wall_ms[g], 0.25);
    state.counters[grid + "_wall_q3_ms"] = quantile(wall_ms[g], 0.75);
    state.counters[grid + "_faster_rounds"] = faster;
  }
}

void register_measured() {
  for (const auto& [shape, sizes] :
       {std::pair<std::string, std::vector<std::int64_t>>{"fig7",
                                                          {64, 64, 64, 64}},
        {"smoke", {16, 16, 16, 16}}}) {
    ::benchmark::RegisterBenchmark(
        ("BM_GridWallTime/" + shape).c_str(),
        [sizes](benchmark::State& state) { BM_GridWallTime(state, sizes); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  const auto partitions = enumerate_partitions(4, 3);
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    ::benchmark::RegisterBenchmark("BM_MeasuredGridSweep",
                                   BM_MeasuredGridSweep)
        ->Args({static_cast<std::int64_t>(i)})
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_tables() {
  model_table().print();
  measured_table().print();
}

}  // namespace
}  // namespace cubist::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  cubist::bench::register_measured();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  cubist::bench::print_tables();
  return 0;
}
