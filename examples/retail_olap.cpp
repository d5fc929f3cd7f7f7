// retail_olap — the paper's motivating scenario at a realistic size.
//
// A retail chain stores sales as a sparse 4-D array: item x branch x
// week x customer-segment. Item popularity is Zipf-skewed (a few items
// sell everywhere). The example builds the complete data cube once and
// then answers typical OLAP group-bys instantly from the materialized
// views; it also demonstrates building under a memory budget with the
// tiling extension and exporting a view as CSV.
//
//   $ ./examples/retail_olap [--items=96] [--branches=48] [--weeks=32]
//                            [--segments=8] [--density=0.08] [--csv=PATH]
#include <cstdio>

#include "common/args.h"
#include "cubist/cubist.h"

using namespace cubist;

int main(int argc, char** argv) {
  ArgParser args("retail_olap",
                 "build and query a retail sales data cube");
  const auto* items = args.add_int("items", 96, "number of items");
  const auto* branches = args.add_int("branches", 48, "number of branches");
  const auto* weeks = args.add_int("weeks", 32, "number of weeks");
  const auto* segments = args.add_int("segments", 8, "customer segments");
  const auto* density = args.add_double("density", 0.08,
                                        "fraction of cells with sales");
  const auto* seed = args.add_int("seed", 42, "dataset seed");
  const auto* csv = args.add_string("csv", "", "export item x week view CSV");
  if (!args.parse(argc, argv)) return 1;

  SparseSpec spec;
  spec.sizes = {*items, *branches, *weeks, *segments};
  spec.density = *density;
  spec.seed = static_cast<std::uint64_t>(*seed);
  spec.zipf_theta = 0.8;  // popular items dominate

  std::printf("generating sales: %lld items x %lld branches x %lld weeks x "
              "%lld segments, ~%.0f%% populated, Zipf-skewed...\n",
              static_cast<long long>(*items), static_cast<long long>(*branches),
              static_cast<long long>(*weeks), static_cast<long long>(*segments),
              *density * 100);
  const SparseArray sales = generate_sparse_global(spec);
  std::printf("  %lld transactions (density %.1f%%), %.1f MB compressed\n\n",
              static_cast<long long>(sales.nnz()), sales.density() * 100,
              static_cast<double>(sales.bytes()) / 1e6);

  // Full cube: all 2^4 = 16 group-bys at once.
  Timer timer;
  BuildStats stats;
  const CubeResult cube = build_cube_sequential(sales, &stats);
  std::printf("built all %zu group-by views in %.2f s "
              "(peak live memory %.2f MB, Theorem-1 bound %.2f MB)\n\n",
              cube.num_views() + 1, timer.elapsed_seconds(),
              static_cast<double>(stats.peak_live_bytes) / 1e6,
              static_cast<double>(
                  sequential_memory_bound(CubeLattice(spec.sizes))) /
                  1e6);

  // Dimension ids, for readability.
  const int kItem = 0, kBranch = 1, kWeek = 2, kSegment = 3;

  // Typical OLAP queries — each a single array lookup now.
  std::printf("Q1  total sales:                       %.0f\n",
              cube.query(DimSet(), {}));
  std::printf("Q2  sales of item 0 (top seller):      %.0f\n",
              cube.query(DimSet::of({kItem}), {0}));
  const std::int64_t q3_week = *weeks / 3;  // week 10 of the default 32
  std::printf("Q3  sales at branch 5, week %2lld:        %.0f\n",
              static_cast<long long>(q3_week),
              cube.query(DimSet::of({kBranch, kWeek}), {5, q3_week}));
  std::printf("Q4  item 3 at branch 2, all weeks:     %.0f\n",
              cube.query(DimSet::of({kItem, kBranch}), {3, 2}));
  std::printf("Q5  segment 1 in week 0:               %.0f\n",
              cube.query(DimSet::of({kWeek, kSegment}), {0, 1}));

  // Find the best-selling branch from the branch view.
  const DenseArray& by_branch = cube.view(DimSet::of({kBranch}));
  std::int64_t best_branch = 0;
  for (std::int64_t b = 1; b < by_branch.size(); ++b) {
    if (by_branch[b] > by_branch[best_branch]) best_branch = b;
  }
  std::printf("Q6  best-selling branch:               #%lld (%.0f)\n\n",
              static_cast<long long>(best_branch), by_branch[best_branch]);

  // Memory-budgeted construction: the same cube with ~60% of the memory.
  const std::int64_t full_bound =
      sequential_memory_bound(CubeLattice(spec.sizes));
  const TilingPlan plan = plan_tiling(spec.sizes, full_bound * 6 / 10);
  TiledBuildStats tiled_stats;
  const CubeResult tiled = build_cube_tiled(sales, plan, &tiled_stats);
  std::printf("tiled rebuild under a %.2f MB budget: %lld slabs of %lld "
              "items, peak %.2f MB — identical results: %s\n",
              static_cast<double>(full_bound) * 0.6 / 1e6,
              static_cast<long long>(plan.num_tiles),
              static_cast<long long>(plan.tile_extent),
              static_cast<double>(tiled_stats.peak_live_bytes) / 1e6,
              compare_cubes(cube, tiled).empty() ? "yes" : "NO");

  if (!csv->empty()) {
    write_view_csv(cube.view(DimSet::of({kItem, kWeek})), {"item", "week"},
                   *csv);
    std::printf("wrote item x week view to %s\n", csv->c_str());
  }
  return 0;
}
