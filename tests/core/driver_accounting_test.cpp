// Accounting invariants of the parallel driver: gather traffic never
// contaminates the construction-phase measurements.
#include <gtest/gtest.h>

#include "cubist/cubist.h"

namespace cubist {
namespace {

SparseSpec spec_16() {
  SparseSpec spec;
  spec.sizes = {16, 8, 8};
  spec.density = 0.25;
  spec.seed = 7;
  return spec;
}

BlockProvider provider_of(const SparseSpec& spec) {
  return [spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
}

TEST(DriverAccountingTest, GatherDoesNotInflateConstructionBytes) {
  const SparseSpec spec = spec_16();
  const auto with_gather = run_parallel_cube(
      spec.sizes, {1, 1, 0}, CostModel{}, provider_of(spec), true);
  const auto without_gather = run_parallel_cube(
      spec.sizes, {1, 1, 0}, CostModel{}, provider_of(spec), false);
  EXPECT_EQ(with_gather.construction_bytes,
            without_gather.construction_bytes);
  EXPECT_EQ(with_gather.bytes_by_view, without_gather.bytes_by_view);
  // But the run's raw totals DO include the gather messages.
  EXPECT_GT(with_gather.run.volume.total_bytes,
            with_gather.construction_bytes);
  EXPECT_EQ(without_gather.run.volume.total_bytes,
            without_gather.construction_bytes);
}

TEST(DriverAccountingTest, ConstructionClockUnaffectedByGather) {
  // The gather runs inside the walk, at each view's write-back, so this
  // is what keeps its LogP charges off the construction clock: per rank,
  // the construction clock is the same with and without it — on the
  // default model and on the paper-calibrated one (every send pays a
  // 5 us overhead and 20 MB/s transfer).
  const SparseSpec spec = spec_16();
  CostModel paper;
  paper.overhead = 5e-6;
  paper.bandwidth = 20e6;
  for (const CostModel& model : {CostModel{}, paper}) {
    const auto with_gather = run_parallel_cube(
        spec.sizes, {1, 1, 0}, model, provider_of(spec), true);
    const auto without_gather = run_parallel_cube(
        spec.sizes, {1, 1, 0}, model, provider_of(spec), false);
    EXPECT_EQ(with_gather.construction_seconds,
              without_gather.construction_seconds);
    ASSERT_EQ(with_gather.rank_stats.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(with_gather.rank_stats[r].build_clock_seconds,
                without_gather.rank_stats[r].build_clock_seconds)
          << "rank " << r;
    }
  }
}

TEST(DriverAccountingTest, RankStatsCoverAllRanks) {
  const SparseSpec spec = spec_16();
  const auto report = run_parallel_cube(spec.sizes, {1, 1, 1}, CostModel{},
                                        provider_of(spec), false);
  ASSERT_EQ(report.rank_stats.size(), 8u);
  for (const auto& stats : report.rank_stats) {
    EXPECT_GT(stats.cells_scanned, 0);
    EXPECT_GT(stats.build_clock_seconds, 0.0);
    EXPECT_GT(stats.peak_live_bytes, 0);
  }
  EXPECT_GT(report.total_nnz, 0);
}

TEST(DriverAccountingTest, VolumeScalesWithModelIndependence) {
  // The trace counts bytes; the cost model must not affect them.
  const SparseSpec spec = spec_16();
  CostModel slow;
  slow.bandwidth = 1e3;
  slow.latency = 1.0;
  const auto fast_report = run_parallel_cube(
      spec.sizes, {1, 0, 1}, CostModel{}, provider_of(spec), false);
  const auto slow_report = run_parallel_cube(
      spec.sizes, {1, 0, 1}, slow, provider_of(spec), false);
  EXPECT_EQ(fast_report.construction_bytes, slow_report.construction_bytes);
  EXPECT_GT(slow_report.construction_seconds,
            fast_report.construction_seconds);
}

TEST(DriverAccountingTest, SimulatedTimeMonotoneInBandwidth) {
  const SparseSpec spec = spec_16();
  double previous = 0.0;
  for (double bandwidth : {1e6, 1e7, 1e8}) {
    CostModel model;
    model.bandwidth = bandwidth;
    const auto report = run_parallel_cube(spec.sizes, {2, 1, 0}, model,
                                          provider_of(spec), false);
    if (previous > 0.0) {
      EXPECT_LT(report.construction_seconds, previous) << bandwidth;
    }
    previous = report.construction_seconds;
  }
}

TEST(DriverAccountingTest, WrittenBytesAcrossRanksCoverEveryView) {
  // Summing written view-block bytes over all ranks equals the total
  // output size of the cube (each view's cells written exactly once,
  // distributed over its leads).
  const SparseSpec spec = spec_16();
  const auto report = run_parallel_cube(spec.sizes, {1, 1, 1}, CostModel{},
                                        provider_of(spec), false);
  std::int64_t written = 0;
  for (const auto& stats : report.rank_stats) {
    written += stats.written_bytes;
  }
  const CubeLattice lattice(spec.sizes);
  std::int64_t expected = 0;
  for (DimSet view : lattice.all_views()) {
    if (view != DimSet::full(3)) {
      expected += lattice.view_cells(view) *
                  static_cast<std::int64_t>(sizeof(Value));
    }
  }
  EXPECT_EQ(written, expected);
}

}  // namespace
}  // namespace cubist
