#include "array/aggregate.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/rng.h"
#include "test_util.h"

namespace cubist {
namespace {

/// Brute-force marginalization: sums `parent` over dimension `pos` using
/// only Shape::unravel — independent of the kernel's stride arithmetic.
DenseArray brute_force_aggregate(const DenseArray& parent, int pos) {
  DenseArray out{parent.shape().without_dim(pos)};
  const int m = parent.ndim();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(m));
  std::vector<std::int64_t> child_idx;
  for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
    parent.shape().unravel(linear, idx.data());
    child_idx.clear();
    for (int d = 0; d < m; ++d) {
      if (d != pos) child_idx.push_back(idx[d]);
    }
    out.at(child_idx) += parent[linear];
  }
  return out;
}

TEST(AggregateDenseTest, SingleTargetMatchesBruteForce2D) {
  const DenseArray parent = testing::iota_dense({3, 4});
  for (int pos = 0; pos < 2; ++pos) {
    DenseArray child{parent.shape().without_dim(pos)};
    const AggregationTarget target{pos, &child};
    aggregate_children(parent, std::span(&target, 1));
    EXPECT_EQ(child, brute_force_aggregate(parent, pos)) << "pos=" << pos;
  }
}

TEST(AggregateDenseTest, AllChildrenSimultaneouslyMatchBruteForce) {
  const DenseArray parent = testing::random_dense({4, 3, 5}, 0.7, 21);
  std::vector<DenseArray> children;
  children.reserve(3);
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  const AggregationStats stats = aggregate_children(parent, targets);
  for (int pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(children[static_cast<std::size_t>(pos)],
              brute_force_aggregate(parent, pos))
        << "pos=" << pos;
  }
  EXPECT_EQ(stats.cells_scanned, parent.size());
  EXPECT_EQ(stats.updates, parent.size() * 3);
}

TEST(AggregateDenseTest, VectorToScalar) {
  const DenseArray parent = testing::iota_dense({5});
  DenseArray child{Shape{std::vector<std::int64_t>{}}};
  const AggregationTarget target{0, &child};
  aggregate_children(parent, std::span(&target, 1));
  EXPECT_EQ(child[0], 15.0);  // 1+2+3+4+5
}

TEST(AggregateDenseTest, TotalIsPreservedByEveryChild) {
  const DenseArray parent = testing::random_dense({6, 2, 4, 3}, 0.4, 8);
  for (int pos = 0; pos < 4; ++pos) {
    DenseArray child{parent.shape().without_dim(pos)};
    const AggregationTarget target{pos, &child};
    aggregate_children(parent, std::span(&target, 1));
    EXPECT_EQ(child.total(), parent.total()) << "pos=" << pos;
  }
}

TEST(AggregateDenseTest, AccumulatesIntoExistingValues) {
  const DenseArray parent = testing::iota_dense({2, 2});
  DenseArray child{Shape{{2}}};
  child.fill(100.0);
  const AggregationTarget target{0, &child};
  aggregate_children(parent, std::span(&target, 1));
  EXPECT_EQ(child[0], 104.0);  // 100 + 1 + 3
  EXPECT_EQ(child[1], 106.0);  // 100 + 2 + 4
}

TEST(AggregateDenseTest, ShapeMismatchThrows) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray wrong{Shape{{3}}};  // should be {4} for pos=0
  const AggregationTarget target{0, &wrong};
  EXPECT_THROW(aggregate_children(parent, std::span(&target, 1)),
               InvalidArgument);
}

TEST(AggregateDenseTest, EmptyTargetsIsNoOp) {
  const DenseArray parent = testing::iota_dense({3, 4});
  const AggregationStats stats =
      aggregate_children(parent, std::span<const AggregationTarget>{});
  EXPECT_EQ(stats.cells_scanned, 0);
  EXPECT_EQ(stats.updates, 0);
}

// --- sparse kernel ---

class AggregateSparseTest
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(AggregateSparseTest, MatchesDenseKernelForAnyChunking) {
  const std::vector<std::int64_t> chunk_extents = GetParam();
  const DenseArray dense = testing::random_dense({7, 5, 6}, 0.3, 33);
  const SparseArray sparse = SparseArray::from_dense(dense, chunk_extents);

  for (int pos = 0; pos < 3; ++pos) {
    DenseArray from_sparse{dense.shape().without_dim(pos)};
    DenseArray from_dense{dense.shape().without_dim(pos)};
    const AggregationTarget sparse_target{pos, &from_sparse};
    const AggregationTarget dense_target{pos, &from_dense};
    aggregate_children(sparse, std::span(&sparse_target, 1));
    aggregate_children(dense, std::span(&dense_target, 1));
    EXPECT_EQ(from_sparse, from_dense) << "pos=" << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chunkings, AggregateSparseTest,
    ::testing::Values(std::vector<std::int64_t>{7, 5, 6},   // one chunk
                      std::vector<std::int64_t>{4, 4, 4},   // boundary chunks
                      std::vector<std::int64_t>{1, 1, 1},   // degenerate
                      std::vector<std::int64_t>{2, 5, 3},   // mixed
                      std::vector<std::int64_t>{16, 16, 16}));  // oversize

TEST(AggregateSparseTest, MultiTargetMatchesBruteForce) {
  const DenseArray dense = testing::random_dense({6, 4, 5}, 0.25, 77);
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4, 4});
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(dense.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  const AggregationStats stats = aggregate_children(sparse, targets);
  for (int pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(children[static_cast<std::size_t>(pos)],
              brute_force_aggregate(dense, pos));
  }
  EXPECT_EQ(stats.cells_scanned, sparse.nnz());
  EXPECT_EQ(stats.updates, sparse.nnz() * 3);
}

TEST(AggregateSparseTest, HugeChunkFallsBackToDecodePath) {
  // One chunk of the largest size the format allows (2^16 cells) holding
  // fewer non-zeros than its cells builds no offset table: every target
  // takes the decode path and must still match the dense kernel.
  const std::vector<std::int64_t> extents{16, 16, 16, 16};
  DenseArray dense{Shape{extents}};
  ASSERT_EQ(dense.size(), SparseArray::kMaxChunkCells);
  Xoshiro256ss rng(99);
  // Populate sparsely by hand to keep the test fast.
  for (int i = 0; i < 20000; ++i) {
    const auto linear =
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(dense.size())));
    dense[linear] = static_cast<Value>(1 + rng.next_below(9));
  }
  const SparseArray sparse = SparseArray::from_dense(dense, extents);
  ASSERT_EQ(sparse.num_chunks(), 1);
  for (int pos = 0; pos < 4; ++pos) {
    DenseArray from_sparse{dense.shape().without_dim(pos)};
    DenseArray from_dense{dense.shape().without_dim(pos)};
    const AggregationTarget st{pos, &from_sparse};
    const AggregationTarget dt{pos, &from_dense};
    const AggregationStats stats =
        aggregate_children(sparse, std::span(&st, 1));
    aggregate_children(dense, std::span(&dt, 1));
    EXPECT_EQ(stats.scratch_bytes, 0) << pos;  // no table: decoded
    ASSERT_EQ(from_sparse, from_dense) << pos;
  }
  // A chunk past the cap is refused: its offsets would not fit 16 bits.
  EXPECT_THROW(SparseArray::from_dense(DenseArray{Shape{{40, 40, 41}}},
                                       {40, 40, 41}),
               InvalidArgument);
}

TEST(AggregateSparseTest, OffsetTableRuleKeepsChildrenAndStats) {
  // The same data chunked two ways: one chunk of 2160 cells holds fewer
  // non-zeros than its volume (no offset table, every chunk decodes);
  // 4x4x3 chunks hold far fewer cells than the non-zeros (table for
  // interior chunks, decode for the clipped ones). Both must match the
  // dense kernel under every operator.
  const DenseArray dense = testing::random_dense({20, 18, 6}, 0.3, 41);
  const SparseArray one_chunk = SparseArray::from_dense(dense, {20, 18, 6});
  const SparseArray small_chunks = SparseArray::from_dense(dense, {4, 4, 3});
  ASSERT_LT(one_chunk.nnz(), 20 * 18 * 6);
  ASSERT_GT(small_chunks.nnz(), 4 * 4 * 3);
  for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kCount,
                         AggregateOp::kMin, AggregateOp::kMax}) {
    std::vector<DenseArray> expected;
    std::vector<AggregationTarget> dense_targets;
    expected.reserve(3);
    for (int pos = 0; pos < 3; ++pos) {
      expected.emplace_back(dense.shape().without_dim(pos), identity_of(op));
      dense_targets.push_back({pos, &expected.back()});
    }
    aggregate_children(dense, dense_targets, {}, op);
    for (const SparseArray* sparse : {&one_chunk, &small_chunks}) {
      std::vector<DenseArray> children;
      std::vector<AggregationTarget> targets;
      children.reserve(3);
      for (int pos = 0; pos < 3; ++pos) {
        children.emplace_back(dense.shape().without_dim(pos), identity_of(op));
        targets.push_back({pos, &children.back()});
      }
      const AggregationStats stats =
          aggregate_children(*sparse, targets, {}, op);
      EXPECT_EQ(children, expected)
          << to_string(op) << ", " << sparse->num_chunks() << " chunks";
      EXPECT_EQ(stats.cells_scanned, sparse->nnz());
      EXPECT_EQ(stats.updates, sparse->nnz() * 3);
    }
  }
}

// --- generic projection ---

TEST(ProjectTest, KeepAllIsIdentityCopy) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{parent.shape()};
  project(parent, BlockRange::whole(parent.shape()), {0, 1}, &out);
  EXPECT_EQ(out, parent);
}

TEST(ProjectTest, KeepNoneSumsEverything) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{std::vector<std::int64_t>{}}};
  project(parent, BlockRange::whole(parent.shape()), {}, &out);
  EXPECT_EQ(out[0], parent.total());
}

TEST(ProjectTest, MultiDimDropMatchesIteratedSingleDrops) {
  const DenseArray parent = testing::random_dense({4, 3, 5, 2}, 0.6, 13);
  // Drop dims 1 and 3 in one projection...
  DenseArray direct{Shape{{4, 5}}};
  project(parent, BlockRange::whole(parent.shape()), {0, 2}, &direct);
  // ...versus dropping 3 then 1 with the single-dim kernel.
  DenseArray step1{parent.shape().without_dim(3)};
  const AggregationTarget t1{3, &step1};
  aggregate_children(parent, std::span(&t1, 1));
  DenseArray step2{step1.shape().without_dim(1)};
  const AggregationTarget t2{1, &step2};
  aggregate_children(step1, std::span(&t2, 1));
  EXPECT_EQ(direct, step2);
}

TEST(ProjectTest, SparseMatchesDense) {
  const DenseArray dense = testing::random_dense({5, 6, 4}, 0.3, 41);
  const SparseArray sparse = SparseArray::from_dense(dense, {3, 3, 3});
  DenseArray from_dense{Shape{{6}}};
  DenseArray from_sparse{Shape{{6}}};
  project(dense, BlockRange::whole(dense.shape()), {1}, &from_dense);
  project(sparse, BlockRange::whole(sparse.shape()), {1}, &from_sparse);
  EXPECT_EQ(from_dense, from_sparse);
}

TEST(ProjectTest, NonAscendingKeptPositionsRejected) {
  const DenseArray parent = testing::iota_dense({3, 4, 5});
  DenseArray out{Shape{{5, 3}}};
  EXPECT_THROW(
      project(parent, BlockRange::whole(parent.shape()), {2, 0}, &out),
      InvalidArgument);
}

/// project()'s reference: every cell of `dense` inside `region` added at
/// its kept coordinates, counted from the region's low corner.
DenseArray plain_projection(const DenseArray& dense, const BlockRange& region,
                            const std::vector<int>& kept) {
  std::vector<std::int64_t> extents;
  for (int pos : kept) extents.push_back(region.extent(pos));
  DenseArray out{Shape{extents}};
  std::vector<std::int64_t> index(static_cast<std::size_t>(dense.ndim()));
  std::vector<std::int64_t> at(kept.size());
  for (std::int64_t linear = 0; linear < dense.size(); ++linear) {
    dense.shape().unravel(linear, index.data());
    if (!region.contains(index.data())) continue;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      at[i] = index[kept[i]] - region.lo(kept[i]);
    }
    out.at(at) += dense[linear];
  }
  return out;
}

TEST(ProjectTest, RandomRegionsMatchAPlainLoop) {
  // Regions of every size down to one cell, at both corners and at random
  // places, keeping random positions, of dense and sparse sources.
  Xoshiro256ss rng(2024);
  const std::vector<std::vector<std::int64_t>> shapes{
      {}, {1}, {9}, {5, 1, 6}, {4, 6, 3, 5}, {3, 2, 4, 2, 3}};
  for (const std::vector<std::int64_t>& sizes : shapes) {
    const int m = static_cast<int>(sizes.size());
    const DenseArray dense = testing::random_dense(sizes, 0.4, 7 + sizes.size());
    std::optional<SparseArray> sparse;
    if (m > 0) {
      sparse = SparseArray::from_dense(dense, std::vector<std::int64_t>(
                                                  sizes.size(), 2));
    }
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<std::int64_t> lo(sizes.size());
      std::vector<std::int64_t> hi(sizes.size());
      std::vector<int> kept;
      for (int d = 0; d < m; ++d) {
        const std::int64_t extent = sizes[static_cast<std::size_t>(d)];
        if (trial == 0) {  // the whole source
          lo[d] = 0;
          hi[d] = extent;
        } else if (trial == 1) {  // the far corner's one cell
          lo[d] = extent - 1;
          hi[d] = extent;
        } else if (trial == 2) {  // the near corner's one cell
          lo[d] = 0;
          hi[d] = 1;
        } else {
          lo[d] = static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(extent)));
          hi[d] = lo[d] + 1 +
                  static_cast<std::int64_t>(rng.next_below(
                      static_cast<std::uint64_t>(extent - lo[d])));
        }
        if (rng.next_below(2) == 0) kept.push_back(d);
      }
      const BlockRange region(lo, hi);
      SCOPED_TRACE(::testing::Message()
                   << dense.shape().to_string() << " region "
                   << region.to_string() << ", " << kept.size() << " kept");
      const DenseArray expected = plain_projection(dense, region, kept);
      DenseArray out{expected.shape()};
      const AggregationStats scan = project(dense, region, kept, &out);
      EXPECT_EQ(out, expected);
      EXPECT_EQ(scan.cells_scanned, region.size());
      EXPECT_EQ(scan.updates, region.size());
      if (sparse) {
        DenseArray from_sparse{expected.shape()};
        const AggregationStats sparse_scan =
            project(*sparse, region, kept, &from_sparse);
        EXPECT_EQ(from_sparse, expected);
        EXPECT_EQ(sparse_scan.cells_scanned, sparse->nnz());
      }
    }
  }
}

TEST(ProjectTest, RegionOutsideTheParentRejected) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{{2}}};
  EXPECT_THROW(project(parent, BlockRange({2, 0}, {4, 4}), {0}, &out),
               InvalidArgument);
  EXPECT_THROW(project(parent, BlockRange({0}, {2}), {0}, &out),
               InvalidArgument);
  const SparseArray sparse = SparseArray::from_dense(parent, {2, 2});
  DenseArray row{Shape{{4}}};
  EXPECT_THROW(project(sparse, BlockRange({0, 1}, {1, 5}), {1}, &row),
               InvalidArgument);
}

TEST(ProjectTest, WrongOutputShapeRejected) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{{3}}};
  EXPECT_THROW(
      project(parent, BlockRange::whole(parent.shape()), {1}, &out),
      InvalidArgument);
}

}  // namespace
}  // namespace cubist
