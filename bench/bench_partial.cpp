// Partial materialization (paper §7 future work): the storage/latency
// frontier of HRU-greedy view selection, with MEASURED query costs.
//
// For each budget k, materializes the greedy selection of a skewed 4-D
// cube and probes one point query on every lattice view, comparing the
// measured cells scanned with the prediction (they must agree): the
// linear cost model's |ancestor| / |view| for a point an ancestor answers,
// the input's non-zeros in the point's region for one the input answers.
// It also reports the storage spent.
#include "bench_util.h"

namespace cubist::bench {
namespace {

const std::vector<std::int64_t> kSizes{96, 48, 24, 12};
constexpr double kDensity = 0.15;
constexpr std::uint64_t kSeed = 31;

FigureTable& partial_table() {
  static FigureTable table(
      "Partial materialization: HRU greedy over a 96x48x24x12 cube "
      "(uniform point-query workload)",
      {"k", "storage_MB", "avg_query_cells", "predicted_cells", "model==measured",
       "picked_this_round"});
  return table;
}

void BM_Partial(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const CubeLattice lattice(kSizes);
  const SparseArray& input =
      DatasetCache::instance().global(kSizes, kDensity, kSeed);
  const ViewSelection selection = select_views_greedy(lattice, k);

  PartialCube cube = PartialCube::build(input, selection.views);

  std::int64_t measured_total = 0;
  for (auto _ : state) {
    measured_total = 0;
    for (DimSet view : lattice.all_views()) {
      if (view == DimSet::full(4)) continue;
      std::int64_t cells = 0;
      std::vector<std::int64_t> coords(static_cast<std::size_t>(view.size()),
                                       0);
      cube.query(view, coords, &cells);
      measured_total += cells;
    }
    benchmark::DoNotOptimize(measured_total);
  }

  // The linear-model prediction over the same workload: |best ancestor| /
  // |view| cells per probe (one ancestor "row" per point), except queries
  // answered by the raw input, which scan its non-zeros in the point's
  // region: those at coordinate 0 on every dimension of the view.
  std::int64_t predicted_total = 0;
  for (DimSet view : lattice.all_views()) {
    if (view == DimSet::full(4)) continue;
    std::int64_t best = -1;
    for (DimSet m : selection.views) {
      if (view.is_subset_of(m) &&
          (best < 0 || lattice.view_cells(m) < best)) {
        best = lattice.view_cells(m);
      }
    }
    if (best >= 0) {
      predicted_total += best / lattice.view_cells(view);
      continue;
    }
    input.for_each_nonzero([&](const std::int64_t* index, Value) {
      for (int d : view.dims()) {
        if (index[d] != 0) return;
      }
      ++predicted_total;
    });
  }
  const std::int64_t num_queries = lattice.num_views() - 1;
  partial_table().add(
      {std::to_string(k),
       TextTable::fixed(static_cast<double>(cube.materialized_bytes()) / 1e6,
                        2),
       TextTable::with_thousands(measured_total / num_queries),
       TextTable::with_thousands(predicted_total / num_queries),
       measured_total == predicted_total ? "yes" : "NO",
       k == 0 ? "-"
              : selection.steps.back().view.to_letters() + " (benefit " +
                    TextTable::with_thousands(
                        selection.steps.back().benefit) +
                    ")"});
  state.counters["avg_cells"] =
      static_cast<double>(measured_total) / static_cast<double>(num_queries);
}

BENCHMARK(BM_Partial)->DenseRange(0, 8)->Iterations(1)->Unit(
    benchmark::kMillisecond);

void print_tables() { partial_table().print(); }

}  // namespace
}  // namespace cubist::bench

CUBIST_BENCH_MAIN(cubist::bench::print_tables)
