// Theorems 6/7 reproduction: the effect of the dimension ordering.
//
// For a skewed 4-D cube, evaluates every one of the 4! = 24 aggregation
// tree instantiations: Theorem-3 volume under its greedy-optimal
// partition, and whether the instantiation computes every view from a
// minimal parent. The non-increasing ordering must top the ranking on
// both criteria simultaneously — the paper's "same ordering minimizes
// both" result.
#include <algorithm>
#include <numeric>

#include "bench_util.h"

namespace cubist::bench {
namespace {

const std::vector<std::int64_t> kSizes{128, 32, 16, 4};
constexpr int kLogP = 4;

FigureTable& ordering_table() {
  static FigureTable table(
      "Ordering: all 4! aggregation-tree instantiations of {128,32,16,4}, "
      "p=16",
      {"ordering", "volume_Melem", "minimal_parents", "vs_best"});
  return table;
}

std::vector<std::vector<int>> all_orderings() {
  std::vector<int> perm(kSizes.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::vector<int>> out;
  do {
    out.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

void BM_Ordering(benchmark::State& state) {
  const auto orderings = all_orderings();
  const auto& perm = orderings[static_cast<std::size_t>(state.range(0))];
  std::int64_t volume = 0;
  for (auto _ : state) {
    volume = ordering_volume(kSizes, perm, kLogP);
    benchmark::DoNotOptimize(volume);
  }
  static std::int64_t best_volume = -1;
  const auto descending = descending_permutation(kSizes);
  const std::int64_t descending_volume =
      ordering_volume(kSizes, descending, kLogP);
  if (best_volume < 0) best_volume = descending_volume;
  CUBIST_ASSERT(volume >= descending_volume,
                "Theorem 6 violated: some ordering beats non-increasing");

  const auto ordered_sizes = apply_permutation(kSizes, perm);
  std::string name;
  for (std::size_t i = 0; i < ordered_sizes.size(); ++i) {
    if (i) name += ",";
    name += std::to_string(ordered_sizes[i]);
  }
  ordering_table().add(
      {name, TextTable::fixed(static_cast<double>(volume) / 1e6, 3),
       is_minimal_parent_ordering(ordered_sizes) ? "yes" : "no",
       TextTable::fixed(
           static_cast<double>(volume) / static_cast<double>(best_volume),
           2) +
           "x"});
  state.counters["Melem"] = static_cast<double>(volume) / 1e6;
}

BENCHMARK(BM_Ordering)->DenseRange(0, 23)->Iterations(1);

FigureTable& measured_table() {
  static FigureTable table(
      "Ordering (measured): physically transposed dataset, p=16, greedy "
      "grid per instantiation",
      {"ordering", "grid", "measured_MB", "sim_time_s"});
  return table;
}

/// End-to-end check of Theorem 6 on MEASURED bytes: build the cube of the
/// same data under the best (descending) and worst (ascending) physical
/// orderings and compare the measured per-view volumes.
void BM_OrderingMeasured(benchmark::State& state) {
  const bool descending = state.range(0) == 0;
  std::vector<std::int64_t> sizes = kSizes;
  if (!descending) std::reverse(sizes.begin(), sizes.end());
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = 0.10;
  spec.seed = 41;
  const BlockProvider provider = [spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
  const auto splits = greedy_partition(sizes, kLogP);
  ParallelCubeReport report;
  for (auto _ : state) {
    report = run_parallel_cube(sizes, splits, paper_model(), provider, false);
    state.SetIterationTime(report.construction_seconds);
  }
  measured_table().add(
      {descending ? "descending (optimal)" : "ascending (worst)",
       ProcGrid(splits).to_string(),
       TextTable::fixed(static_cast<double>(report.construction_bytes) / 1e6,
                        2),
       TextTable::fixed(report.construction_seconds, 2)});
  state.counters["MB"] =
      static_cast<double>(report.construction_bytes) / 1e6;
}

BENCHMARK(BM_OrderingMeasured)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void print_tables() {
  ordering_table().print();
  measured_table().print();
}

}  // namespace
}  // namespace cubist::bench

CUBIST_BENCH_MAIN(cubist::bench::print_tables)
