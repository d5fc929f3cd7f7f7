// Bit-determinism of the striped aggregation kernels: for a fixed input,
// the output bytes must be those of a one-stripe scan for EVERY
// thread-pool size. No child cell takes contributions from two stripes
// (the children that keep the slab dimension are striped in slabs of it,
// the one that drops it along another dimension), so every cell combines
// its contributions in input order. This is the contract that makes
// CUBIST_THREADS a pure performance knob. Non-integer inputs check the
// order itself: their sums round differently when it changes.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "array/aggregate.h"
#include "common/thread_pool.h"
#include "core/sequential_builder.h"
#include "io/generators.h"
#include "test_util.h"

namespace cubist {
namespace {

/// Pool sizes the determinism contract is exercised with: serial, even,
/// odd/oversubscribed, and whatever the machine has.
std::vector<int> pool_sizes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1, 2, 7, hw == 0 ? 1 : static_cast<int>(hw)};
}

/// The one-position sets of every position: the targets of a scan that
/// produces every child of a cube builder's parent.
std::vector<DimSet> all_positions(int ndim) {
  std::vector<DimSet> positions;
  for (int pos = 0; pos < ndim; ++pos) positions.push_back(DimSet::single(pos));
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
    targets.push_back(
        {DimSet::single(pos), &children[static_cast<std::size_t>(pos)]});
  }
  AggregateOptions options;
  options.pool = &pool;
  aggregate_children(parent, targets, BlockRange::whole(parent.shape()),
                     options, op);
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
  const std::vector<DimSet> positions = all_positions(3);
  ASSERT_GT(plan_dense_scan(parent.shape(), positions).stripes.size(), 1u);

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
  // Prime-ish extents: stripes split dimensions unevenly, and the child
  // that drops dimension 0 takes stripes of dimension 1, of extent 5.
  const DenseArray parent = testing::random_dense({37, 5, 31, 23}, 0.4, 7);
  const std::vector<DimSet> positions = all_positions(4);
  ASSERT_GT(plan_dense_scan(parent.shape(), positions).stripes.size(), 1u);

  const std::vector<DenseArray> reference = children_with_pool(parent, 1);
  for (const int threads : pool_sizes()) {
    expect_bit_identical(reference, children_with_pool(parent, threads),
                         threads);
  }
}

TEST(AggregateDeterminismTest, DenseStripedMatchesScalarProjection) {
  // The striped kernel against the deliberately scalar input-order loop,
  // which shares no code with it — guards against
  // deterministic-but-wrong striping.
  const DenseArray parent = testing::random_dense({48, 48, 48}, 0.5, 55);
  const std::vector<DenseArray> children = children_with_pool(parent, 7);
  for (int pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(children[static_cast<std::size_t>(pos)],
              testing::input_order_scan(parent,
                                        BlockRange::whole(parent.shape()),
                                        DimSet::single(pos)))
        << "pos=" << pos;
  }
}

TEST(AggregateDeterminismTest, SparseBitIdenticalAcrossPoolSizes) {
  const DenseArray dense = testing::random_dense({64, 40, 33}, 0.4, 23);
  const SparseArray parent = SparseArray::from_dense(dense, {8, 8, 8});
  const std::vector<DimSet> positions = all_positions(3);
  ASSERT_GT(plan_sparse_scan(parent.shape(), parent.chunk_extents(),
                             positions, parent.nnz())
                .stripes.size(),
            1u);

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
  const std::vector<DimSet> positions = all_positions(3);
  ASSERT_GT(plan_sparse_scan(parent.shape(), parent.chunk_extents(),
                             positions, parent.nnz())
                .stripes.size(),
            1u);

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

/// Checks that `plan`'s pass (lone or not) tiles [0, extent(dim)) of
/// `parent` along `dim` in order, in 2..kMaxScanStripes stripes.
void expect_pass(const StripePlan& plan, const Shape& parent, bool lone,
                 int dim) {
  std::int64_t next = 0;
  std::int64_t count = 0;
  for (const ScanStripe& stripe : plan.stripes) {
    if (stripe.lone != lone) continue;
    EXPECT_EQ(stripe.dim, dim);
    EXPECT_EQ(stripe.lo, next);
    EXPECT_LT(stripe.lo, stripe.hi);
    next = stripe.hi;
    ++count;
  }
  EXPECT_EQ(next, parent.extent(dim)) << "lone=" << lone;
  EXPECT_GT(count, 1);
  EXPECT_LE(count, kMaxScanStripes);
}

TEST(AggregateDeterminismTest, StripePlanIsIndependentOfThreadCount) {
  // The plan functions take no thread count at all — assert the policy
  // constants produce stable plans on a few shapes: slabs of the outermost
  // dimension for the children that keep it, and stripes of the next one
  // for the child that drops it, scheduled first.
  const Shape big{{48, 48, 48}};
  const std::vector<DimSet> positions = all_positions(3);
  const StripePlan plan = plan_dense_scan(big, positions);
  EXPECT_EQ(plan.slab_dim, 0);
  ASSERT_FALSE(plan.stripes.empty());
  EXPECT_TRUE(plan.stripes.front().lone);
  EXPECT_FALSE(plan.stripes.back().lone);
  expect_pass(plan, big, /*lone=*/true, 1);
  expect_pass(plan, big, /*lone=*/false, 0);
  // The offset-table cap never outgrows the children a scan feeds.
  const std::int64_t child_bytes =
      3 * 48 * 48 * static_cast<std::int64_t>(sizeof(Value));
  EXPECT_EQ(scan_scratch_bound(big, positions), child_bytes);

  // Sparse Figure-7 input: both passes split at chunk boundaries.
  const Shape fig7{{64, 64, 64, 64}};
  const std::vector<std::int64_t> chunks{16, 16, 16, 16};
  const StripePlan sparse =
      plan_sparse_scan(fig7, chunks, all_positions(4), fig7.size() / 4);
  EXPECT_EQ(sparse.slab_dim, 0);
  expect_pass(sparse, fig7, /*lone=*/true, 1);
  expect_pass(sparse, fig7, /*lone=*/false, 0);
  for (const ScanStripe& stripe : sparse.stripes) {
    EXPECT_EQ(stripe.lo % 16, 0);
  }
  // The 5-D serving input lies in one chunk along dimension 1: the lone
  // child's stripes cut its chunks.
  const Shape serve{{16, 16, 16, 16, 8}};
  const std::vector<std::int64_t> serve_chunks{2, 16, 16, 16, 8};
  const StripePlan cut = plan_sparse_scan(serve, serve_chunks,
                                          all_positions(5), serve.size() / 4);
  EXPECT_EQ(cut.slab_dim, 0);
  expect_pass(cut, serve, /*lone=*/true, 1);
  expect_pass(cut, serve, /*lone=*/false, 0);
  // A scan with no child that drops the slab dimension has no lone pass.
  const std::vector<DimSet> keepers = {DimSet::single(1),
                                      DimSet::single(2)};
  for (const ScanStripe& stripe : plan_dense_scan(big, keepers).stripes) {
    EXPECT_FALSE(stripe.lone);
  }

  const Shape tiny{{4, 4, 4}};
  EXPECT_EQ(plan_dense_scan(tiny, positions).slab_dim, -1);
  EXPECT_EQ(plan_dense_scan(tiny, positions).stripes.size(), 1u);
}

/// Checks every child of one all-children scan of `parent` on every pool
/// size byte for byte against the input-order loop, under every operator.
template <typename ParentT>
void expect_input_order(const ParentT& parent) {
  for (const AggregateOp op : kAllOps) {
    for (const int threads : pool_sizes()) {
      const std::vector<DenseArray> children =
          children_with_pool(parent, threads, op);
      for (int pos = 0; pos < parent.ndim(); ++pos) {
        const DenseArray& child = children[static_cast<std::size_t>(pos)];
        const DenseArray expected = testing::input_order_scan(
            parent, BlockRange::whole(parent.shape()), DimSet::single(pos),
            op);
        EXPECT_EQ(std::memcmp(expected.data(), child.data(),
                              static_cast<std::size_t>(expected.bytes())),
                  0)
            << to_string(op) << " " << parent.shape().to_string()
            << " pos=" << pos << " with " << threads << " threads";
      }
    }
  }
}

TEST(AggregateDeterminismTest, NonIntegerDenseChildrenFollowInputOrder) {
  // A 3-D parent whose lone child is striped along an outer dimension, a
  // 2-D one whose lone child is striped along the rows' cells, and one
  // whose slabs take dimension 1, as dimension 0 has one index.
  for (const std::vector<std::int64_t>& extents :
       {std::vector<std::int64_t>{48, 48, 48},
        std::vector<std::int64_t>{256, 128},
        std::vector<std::int64_t>{1, 40, 30, 20}}) {
    const DenseArray parent = testing::fractional_dense(extents, 0.7, 31);
    const StripePlan plan =
        plan_dense_scan(parent.shape(), all_positions(parent.ndim()));
    ASSERT_GT(plan.stripes.size(), 2u);
    ASSERT_TRUE(plan.stripes.front().lone);
    expect_input_order(parent);
  }
}

TEST(AggregateDeterminismTest, NonIntegerSparseChildrenFollowInputOrder) {
  // 8^3 chunks, whose stripes all fall on chunk boundaries; 2x16x16
  // chunks, whose lone stripes cut every chunk on the offset-table path;
  // clipped 2x16x16 chunks, which cut them on the decode path; and one
  // chunk of the largest size the format allows, whose slabs cut it too.
  const DenseArray cube = testing::fractional_dense({64, 40, 33}, 0.4, 47);
  const DenseArray flat = testing::fractional_dense({256, 16, 16}, 0.5, 53);
  const DenseArray ragged = testing::fractional_dense({255, 16, 15}, 0.5, 59);
  const DenseArray single = testing::fractional_dense({64, 32, 32}, 0.4, 47);
  ASSERT_EQ(single.size(), SparseArray::kMaxChunkCells);
  const std::pair<const DenseArray*, std::vector<std::int64_t>> cases[] = {
      {&cube, {8, 8, 8}},
      {&flat, {2, 16, 16}},
      {&ragged, {2, 16, 16}},
      {&single, {64, 32, 32}}};
  // Chunks of at most 256 distinct values are coded, the rest raw: the
  // cases scan both forms, the 2x16x16 chunks both in one array.
  std::array<std::int64_t, 2> forms{};  // [0] raw, [1] coded
  for (const auto& [dense, chunk_extents] : cases) {
    const SparseArray parent = SparseArray::from_dense(*dense, chunk_extents);
    const StripePlan plan =
        plan_sparse_scan(parent.shape(), parent.chunk_extents(),
                         all_positions(3), parent.nnz());
    ASSERT_GT(plan.stripes.size(), 2u);
    ASSERT_TRUE(plan.stripes.front().lone);
    expect_input_order(parent);
    for (std::int64_t c = 0; c < parent.num_chunks(); ++c) {
      if (!parent.chunk_positions(c).empty()) {
        ++forms[parent.chunk_values(c).coded() ? 1 : 0];
      }
    }
  }
  EXPECT_GT(forms[0], 0);
  EXPECT_GT(forms[1], 0);
}

TEST(AggregateDeterminismTest, SparseChunksOfBothPositionFormsMatchBruteForce) {
  // Zipf skew fills the 4x32x16 chunks at low coordinates past one
  // non-zero in 16 cells, so they keep bitmaps, and leaves the far ones
  // below it, so they keep lists. The lone child's stripes cut every chunk
  // along dimension 1 into ranges of 16-cell rows, which start and end
  // inside bitmap words.
  SparseSpec spec;
  spec.sizes = {256, 32, 16};
  spec.chunk_extents = {4, 32, 16};
  spec.density = 0.15;
  spec.zipf_theta = 2.0;
  spec.seed = 83;
  const SparseArray parent = generate_sparse_global(spec);
  std::array<std::int64_t, 2> forms{};  // [0] list, [1] bitmap
  for (std::int64_t c = 0; c < parent.num_chunks(); ++c) {
    if (!parent.chunk_positions(c).empty()) {
      ++forms[parent.chunk_positions(c).bitmap() ? 1 : 0];
    }
  }
  ASSERT_GT(forms[0], 0);
  ASSERT_GT(forms[1], 0);
  const StripePlan plan = plan_sparse_scan(
      parent.shape(), parent.chunk_extents(), all_positions(3), parent.nnz());
  ASSERT_GT(plan.stripes.size(), 2u);
  ASSERT_TRUE(plan.stripes.front().lone);
  const DenseArray dense = parent.to_dense();
  for (const AggregateOp op : kAllOps) {
    std::vector<DenseArray> expected;
    for (int pos = 0; pos < 3; ++pos) {
      expected.push_back(testing::brute_force_op(dense, pos, op));
    }
    const std::vector<DenseArray> reference = children_with_pool(parent, 1, op);
    for (const int threads : {1, 2, 8}) {
      std::vector<DenseArray> children =
          children_with_pool(parent, threads, op);
      expect_bit_identical(reference, children, threads, op);
      for (int pos = 0; pos < 3; ++pos) {
        DenseArray& child = children[static_cast<std::size_t>(pos)];
        finalize_view(op, child);
        const DenseArray& want = expected[static_cast<std::size_t>(pos)];
        EXPECT_EQ(std::memcmp(want.data(), child.data(),
                              static_cast<std::size_t>(want.bytes())),
                  0)
            << to_string(op) << " pos=" << pos << " with " << threads
            << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace cubist
