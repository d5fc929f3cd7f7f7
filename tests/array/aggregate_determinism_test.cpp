// Bit-determinism of the striped aggregation kernels: for a fixed input,
// the output bytes must be identical for EVERY thread-pool size, because
// the stripe geometry is a function of the array shape (and nnz) only and
// stripe-private accumulators merge in fixed stripe order. This is the
// contract that makes CUBIST_THREADS a pure performance knob.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "array/aggregate.h"
#include "common/thread_pool.h"
#include "core/sequential_builder.h"
#include "test_util.h"

namespace cubist {
namespace {

/// Pool sizes the determinism contract is exercised with (the issue's
/// matrix): serial, even, odd/oversubscribed, and whatever the machine has.
std::vector<int> pool_sizes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1, 2, 7, hw == 0 ? 1 : static_cast<int>(hw)};
}

std::vector<int> all_positions(int ndim) {
  std::vector<int> positions;
  for (int pos = 0; pos < ndim; ++pos) positions.push_back(pos);
  return positions;
}

constexpr AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kCount,
                                   AggregateOp::kMin, AggregateOp::kMax};

/// Aggregates every single-dimension child of the raw input `parent`
/// under `op` with a pool of `threads` and returns the children.
template <typename ParentT>
std::vector<DenseArray> children_with_pool(
    const ParentT& parent, int threads, AggregateOp op = AggregateOp::kSum) {
  ThreadPool pool(threads);
  std::vector<DenseArray> children;
  children.reserve(static_cast<std::size_t>(parent.ndim()));
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    children.emplace_back(parent.shape().without_dim(pos), identity_of(op));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  AggregateOptions options;
  options.pool = &pool;
  aggregate_children(parent, targets, options, op);
  return children;
}

void expect_bit_identical(const std::vector<DenseArray>& expected,
                          const std::vector<DenseArray>& actual, int threads,
                          AggregateOp op = AggregateOp::kSum) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(expected[c].size(), actual[c].size());
    EXPECT_EQ(std::memcmp(expected[c].data(), actual[c].data(),
                          static_cast<std::size_t>(expected[c].bytes())),
              0)
        << to_string(op) << " child " << c << " differs with " << threads
        << " threads";
  }
}

TEST(AggregateDeterminismTest, DenseBitIdenticalAcrossPoolSizes) {
  const DenseArray parent = testing::random_dense({48, 48, 48}, 0.6, 101);
  // The shape must be big enough that the plan actually stripes —
  // otherwise this test degenerates to checking the scalar path.
  const std::vector<int> positions = all_positions(3);
  ASSERT_GT(plan_dense_scan(parent.shape(), positions).num_stripes, 1);

  for (const AggregateOp op : kAllOps) {
    const std::vector<DenseArray> reference =
        children_with_pool(parent, 1, op);
    for (const int threads : pool_sizes()) {
      expect_bit_identical(reference,
                           children_with_pool(parent, threads, op), threads,
                           op);
    }
  }
}

TEST(AggregateDeterminismTest, DenseUnevenExtentsBitIdentical) {
  // Prime-ish extents: stripe boundaries never line up with dimension
  // boundaries, the last stripe is ragged, and every target aliases.
  const DenseArray parent = testing::random_dense({37, 5, 31, 23}, 0.4, 7);
  const std::vector<int> positions = all_positions(4);
  ASSERT_GT(plan_dense_scan(parent.shape(), positions).num_stripes, 1);

  const std::vector<DenseArray> reference = children_with_pool(parent, 1);
  for (const int threads : pool_sizes()) {
    expect_bit_identical(reference, children_with_pool(parent, threads),
                         threads);
  }
}

TEST(AggregateDeterminismTest, DenseStripedMatchesScalarProjection) {
  // The striped kernel against the deliberately scalar, independent
  // project() path — guards against a deterministic-but-wrong merge.
  const DenseArray parent = testing::random_dense({48, 48, 48}, 0.5, 55);
  const std::vector<DenseArray> children = children_with_pool(parent, 7);
  for (int pos = 0; pos < 3; ++pos) {
    DenseArray expected{parent.shape().without_dim(pos)};
    std::vector<int> kept;
    for (int d = 0; d < 3; ++d) {
      if (d != pos) kept.push_back(d);
    }
    project(parent, kept, &expected);
    EXPECT_EQ(children[static_cast<std::size_t>(pos)], expected)
        << "pos=" << pos;
  }
}

TEST(AggregateDeterminismTest, SparseBitIdenticalAcrossPoolSizes) {
  const DenseArray dense = testing::random_dense({64, 40, 33}, 0.4, 23);
  const SparseArray parent = SparseArray::from_dense(dense, {8, 8, 8});
  const std::vector<int> positions = all_positions(3);
  ASSERT_GT(plan_sparse_scan(parent.shape(), parent.chunk_grid(), positions,
                             parent.nnz())
                .num_stripes,
            1);

  for (const AggregateOp op : kAllOps) {
    const std::vector<DenseArray> reference =
        children_with_pool(parent, 1, op);
    for (const int threads : pool_sizes()) {
      expect_bit_identical(reference,
                           children_with_pool(parent, threads, op), threads,
                           op);
    }
  }
}

TEST(AggregateDeterminismTest, SparseUnevenBoundaryChunksBitIdentical) {
  // Chunk extents that do not divide the array: boundary chunks take the
  // decode path while interior chunks use the offset table, in the same
  // striped scan.
  const DenseArray dense = testing::random_dense({51, 29, 38}, 0.45, 91);
  const SparseArray parent = SparseArray::from_dense(dense, {8, 8, 8});
  const std::vector<int> positions = all_positions(3);
  ASSERT_GT(plan_sparse_scan(parent.shape(), parent.chunk_grid(), positions,
                             parent.nnz())
                .num_stripes,
            1);

  const std::vector<DenseArray> reference = children_with_pool(parent, 1);
  for (const int threads : pool_sizes()) {
    expect_bit_identical(reference, children_with_pool(parent, threads),
                         threads);
  }
  // And the striped sparse kernel agrees exactly with the dense kernel.
  const std::vector<DenseArray> from_dense = children_with_pool(dense, 1);
  expect_bit_identical(from_dense, reference, 1);
}

TEST(AggregateDeterminismTest, FullCubeBitIdenticalAcrossPoolSizes) {
  // End to end: the whole sequential cube, every view, byte for byte.
  const DenseArray root = testing::random_dense({48, 32, 16}, 0.6, 3);
  ThreadPool serial(1);
  AggregateOptions serial_options;
  serial_options.pool = &serial;
  const CubeResult reference = build_cube_sequential(
      root, nullptr, AggregateOp::kSum, serial_options);
  for (const int threads : pool_sizes()) {
    ThreadPool pool(threads);
    AggregateOptions options;
    options.pool = &pool;
    const CubeResult cube =
        build_cube_sequential(root, nullptr, AggregateOp::kSum, options);
    for (const DimSet view : reference.stored_views()) {
      const DenseArray& expected = reference.view(view);
      const DenseArray& actual = cube.view(view);
      ASSERT_EQ(expected.size(), actual.size());
      EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                            static_cast<std::size_t>(expected.bytes())),
                0)
          << "view " << view.to_string() << " differs with " << threads
          << " threads";
    }
  }
}

TEST(AggregateDeterminismTest, StripePlanIsIndependentOfThreadCount) {
  // The plan functions take no thread count at all — assert the policy
  // constants produce stable, budget-respecting plans on a few shapes.
  const Shape big{{48, 48, 48}};
  const std::vector<int> positions = all_positions(3);
  const StripePlan plan = plan_dense_scan(big, positions);
  EXPECT_GT(plan.num_stripes, 1);
  EXPECT_LE(plan.num_stripes, kMaxScanStripes);
  EXPECT_LE(plan.scratch_bytes, kScanScratchBudgetBytes);
  EXPECT_LE(plan.scratch_bytes, scan_scratch_bound(big, positions));
  // Scratch never outgrows the children it feeds.
  const std::int64_t child_bytes =
      3 * 48 * 48 * static_cast<std::int64_t>(sizeof(Value));
  EXPECT_LE(plan.scratch_bytes, child_bytes);
  EXPECT_EQ(scan_scratch_bound(big, positions), child_bytes);
  EXPECT_GE(plan.stripe_len * plan.num_stripes, 48 * 48);

  const Shape tiny{{4, 4, 4}};
  EXPECT_EQ(plan_dense_scan(tiny, positions).num_stripes, 1);
  EXPECT_EQ(plan_dense_scan(tiny, positions).scratch_bytes, 0);
}

}  // namespace
}  // namespace cubist
