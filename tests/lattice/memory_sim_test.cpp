#include "lattice/memory_sim.h"

#include <gtest/gtest.h>

#include <set>

#include "analysis/schedule_verifier.h"
#include "array/shape.h"

namespace cubist {
namespace {

constexpr std::int64_t kCell = sizeof(Value);

/// The sequential construction of `sizes` as a schedule: zero splits, so
/// the planner walks the Figure-3 tree on one rank.
ScheduleSpec sequential_spec(const std::vector<std::int64_t>& sizes) {
  ScheduleSpec spec;
  spec.sizes = sizes;
  spec.log_splits.assign(sizes.size(), 0);
  return spec;
}

TEST(MemoryLedgerTest, TracksLiveAndPeak) {
  MemoryLedger ledger;
  ledger.alloc(100);
  ledger.alloc(50);
  EXPECT_EQ(ledger.live_bytes(), 150);
  EXPECT_EQ(ledger.peak_bytes(), 150);
  ledger.release(100);
  EXPECT_EQ(ledger.live_bytes(), 50);
  EXPECT_EQ(ledger.peak_bytes(), 150);
  ledger.alloc(20);
  EXPECT_EQ(ledger.peak_bytes(), 150);  // never exceeded the old peak
}

TEST(SequentialMemoryBoundTest, MatchesClosedFormForThreeDims) {
  // Theorem 1: bound = |AB| + |AC| + |BC| = D0*D1 + D0*D2 + D1*D2.
  const CubeLattice lattice({8, 4, 2});
  EXPECT_EQ(sequential_memory_bound(lattice),
            (8 * 4 + 8 * 2 + 4 * 2) * kCell);
}

TEST(SequentialMemoryBoundTest, SingleDimension) {
  // n=1: the only first-level child is the scalar `all`.
  const CubeLattice lattice({100});
  EXPECT_EQ(sequential_memory_bound(lattice), kCell);
}

TEST(MemorySimTest, ScheduleRespectsTheorem1Bound) {
  // The planner's replay of the Figure-3 walk must stay within the bound
  // for any sizes, ordered or not (the bound derivation never uses the
  // ordering).
  const std::vector<std::vector<std::int64_t>> cases = {
      {8, 4, 2}, {2, 4, 8}, {5, 5, 5}, {16, 8, 4, 2}, {3, 9, 27, 3}, {7},
      {9, 3}, {6, 6, 6, 6, 6}};
  for (const auto& sizes : cases) {
    const AnalysisReport report = verify_schedule(sequential_spec(sizes));
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_LE(report.max_peak_live_bytes,
              sequential_memory_bound(CubeLattice(sizes)))
        << sizes.size() << " dims";
  }
}

TEST(MemorySimTest, PeakEqualsBoundAtFirstLevel) {
  // Theorem 2 tightness: right after the root scan, all n first-level
  // children are live simultaneously, so the peak equals the bound.
  for (const auto& sizes : std::vector<std::vector<std::int64_t>>{
           {8, 4, 2}, {16, 16, 16}, {9, 7, 5, 3}}) {
    EXPECT_EQ(verify_schedule(sequential_spec(sizes)).max_peak_live_bytes,
              sequential_memory_bound(CubeLattice(sizes)));
  }
}

TEST(MemorySimTest, WrittenBytesCoverEveryProperView) {
  const CubeLattice lattice({8, 4, 2});
  const CommPlan plan = build_comm_plan(sequential_spec({8, 4, 2}));
  ASSERT_EQ(plan.ranks.size(), 1u);
  std::set<std::uint32_t> written;
  std::int64_t written_bytes = 0;
  for (std::uint32_t mask : plan.ranks[0].final_views) {
    EXPECT_TRUE(written.insert(mask).second) << "view " << mask << " twice";
    written_bytes += lattice.view_cells(DimSet::from_mask(mask)) * kCell;
  }
  std::int64_t expected = 0;
  for (DimSet view : lattice.all_views()) {
    if (view != DimSet::full(3)) {
      expected += lattice.view_cells(view) * kCell;
    }
  }
  EXPECT_EQ(written.size(), 7u);
  EXPECT_EQ(written_bytes, expected);
}

TEST(ParallelMemoryBoundTest, PartitioningDividesTheBound) {
  // Theorem 4 with divisible sizes: splitting dim d by 2^{k_d} divides
  // each term by the product of splits of its retained dims.
  const CubeLattice lattice({8, 8, 8});
  const std::int64_t unsplit =
      parallel_memory_bound(lattice, {0, 0, 0});
  EXPECT_EQ(unsplit, sequential_memory_bound(lattice));
  // Split every dim in half: every 2-dim term shrinks by 4.
  EXPECT_EQ(parallel_memory_bound(lattice, {1, 1, 1}), unsplit / 4);
}

TEST(ParallelMemoryBoundTest, RankMismatchThrows) {
  const CubeLattice lattice({8, 8});
  EXPECT_THROW(parallel_memory_bound(lattice, {1}), InvalidArgument);
}

TEST(CertifySelectionTest, CertifiesExactResidentBytes) {
  const CubeLattice lattice({8, 4, 2});
  const std::vector<DimSet> views{DimSet::of({0, 1}), DimSet::of({2})};
  const std::int64_t expected = (32 + 2) * kCell;
  EXPECT_EQ(certify_selection_bytes(lattice, views, expected),
            expected);
  // Any budget above the footprint certifies the same peak.
  EXPECT_EQ(certify_selection_bytes(lattice, views, expected * 10),
            expected);
}

TEST(CertifySelectionTest, OverBudgetSelectionIsRejected) {
  const CubeLattice lattice({8, 4, 2});
  const std::vector<DimSet> views{DimSet::of({0, 1}), DimSet::of({2})};
  EXPECT_THROW(certify_selection_bytes(lattice, views, (32 + 2) * kCell - 1),
               InvalidArgument);
}

TEST(CertifySelectionTest, RootAndForeignViewsAreRejected) {
  const CubeLattice lattice({8, 4});
  EXPECT_THROW(
      certify_selection_bytes(lattice, {DimSet::full(2)}, 1 << 20),
      InvalidArgument);
  EXPECT_THROW(
      certify_selection_bytes(lattice, {DimSet::of({2})}, 1 << 20),
      InvalidArgument);
}

}  // namespace
}  // namespace cubist
