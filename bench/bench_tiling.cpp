// Tiling extension ablation (paper §3's discussion): construction under a
// shrinking memory budget.
//
// Shows the claimed property: because the aggregation tree minimizes the
// live set, the planner needs few slabs, and the peak drops roughly with
// the slab extent while total work grows only by the re-scanned
// dimension-0-free views.
#include "bench_util.h"

namespace cubist::bench {
namespace {

const std::vector<std::int64_t> kSizes{128, 64, 32, 16};
constexpr double kDensity = 0.10;
constexpr std::uint64_t kSeed = 29;

FigureTable& tiling_table() {
  static FigureTable table(
      "Tiling: 128x64x32x16 cube, 10% sparsity, shrinking memory budget",
      {"budget_MB", "tiles", "tile_extent", "peak_MB", "scans_M",
       "written_MB", "wall_s"});
  return table;
}

void BM_Tiling(benchmark::State& state) {
  const SparseArray& input =
      DatasetCache::instance().global(kSizes, kDensity, kSeed);
  const std::int64_t full =
      sequential_memory_bound(CubeLattice(kSizes));
  // Budgets: 100%, 75%, 50%, 40% of the untiled Theorem-1 bound.
  const double fractions[] = {1.0, 0.75, 0.5, 0.4};
  const double fraction = fractions[state.range(0)];
  const auto budget =
      static_cast<std::int64_t>(static_cast<double>(full) * fraction) + 1;
  const TilingPlan plan = plan_tiling(kSizes, budget);

  TiledBuildStats stats{};
  Timer timer;
  for (auto _ : state) {
    const CubeResult cube = build_cube_tiled(input, plan, &stats);
    benchmark::DoNotOptimize(cube.num_views());
  }
  CUBIST_ASSERT(stats.peak_live_bytes <= budget,
                "tiled peak exceeded the budget");
  tiling_table().add(
      {TextTable::fixed(static_cast<double>(budget) / 1e6, 1),
       std::to_string(plan.num_tiles), std::to_string(plan.tile_extent),
       TextTable::fixed(static_cast<double>(stats.peak_live_bytes) / 1e6, 2),
       TextTable::fixed(static_cast<double>(stats.cells_scanned) / 1e6, 2),
       TextTable::fixed(static_cast<double>(stats.written_bytes) / 1e6, 2),
       TextTable::fixed(timer.elapsed_seconds(), 2)});
  state.counters["tiles"] = static_cast<double>(plan.num_tiles);
  state.counters["peak_MB"] =
      static_cast<double>(stats.peak_live_bytes) / 1e6;
}

BENCHMARK(BM_Tiling)->DenseRange(0, 3)->Iterations(1)->Unit(
    benchmark::kMillisecond);

void print_tables() { tiling_table().print(); }

}  // namespace
}  // namespace cubist::bench

CUBIST_BENCH_MAIN(cubist::bench::print_tables)
