#include "array/aggregate.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>

#include "common/rng.h"
#include "common/thread_pool.h"
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
    const AggregationTarget target{DimSet::single(pos), &child};
    aggregate_children(parent, std::span(&target, 1),
                       BlockRange::whole(parent.shape()));
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
    targets.push_back(
        {DimSet::single(pos), &children[static_cast<std::size_t>(pos)]});
  }
  const AggregationStats stats = aggregate_children(
      parent, targets, BlockRange::whole(parent.shape()));
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
  const AggregationTarget target{DimSet::single(0), &child};
  aggregate_children(parent, std::span(&target, 1),
                     BlockRange::whole(parent.shape()));
  EXPECT_EQ(child[0], 15.0);  // 1+2+3+4+5
}

TEST(AggregateDenseTest, TotalIsPreservedByEveryChild) {
  const DenseArray parent = testing::random_dense({6, 2, 4, 3}, 0.4, 8);
  for (int pos = 0; pos < 4; ++pos) {
    DenseArray child{parent.shape().without_dim(pos)};
    const AggregationTarget target{DimSet::single(pos), &child};
    aggregate_children(parent, std::span(&target, 1),
                       BlockRange::whole(parent.shape()));
    EXPECT_EQ(child.total(), parent.total()) << "pos=" << pos;
  }
}

TEST(AggregateDenseTest, AccumulatesIntoExistingValues) {
  const DenseArray parent = testing::iota_dense({2, 2});
  DenseArray child{Shape{{2}}};
  child.fill(100.0);
  const AggregationTarget target{DimSet::single(0), &child};
  aggregate_children(parent, std::span(&target, 1),
                     BlockRange::whole(parent.shape()));
  EXPECT_EQ(child[0], 104.0);  // 100 + 1 + 3
  EXPECT_EQ(child[1], 106.0);  // 100 + 2 + 4
}

TEST(AggregateDenseTest, ShapeMismatchThrows) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray wrong{Shape{{3}}};  // should be {4} for pos=0
  const AggregationTarget target{DimSet::single(0), &wrong};
  EXPECT_THROW(aggregate_children(parent, std::span(&target, 1),
                                  BlockRange::whole(parent.shape())),
               InvalidArgument);
}

TEST(AggregateDenseTest, EmptyTargetsIsNoOp) {
  const DenseArray parent = testing::iota_dense({3, 4});
  const AggregationStats stats =
      aggregate_children(parent, std::span<const AggregationTarget>{},
                         BlockRange::whole(parent.shape()));
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
    const AggregationTarget sparse_target{DimSet::single(pos), &from_sparse};
    const AggregationTarget dense_target{DimSet::single(pos), &from_dense};
    aggregate_children(sparse, std::span(&sparse_target, 1),
                       BlockRange::whole(sparse.shape()));
    aggregate_children(dense, std::span(&dense_target, 1),
                       BlockRange::whole(dense.shape()));
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
    targets.push_back(
        {DimSet::single(pos), &children[static_cast<std::size_t>(pos)]});
  }
  const AggregationStats stats = aggregate_children(
      sparse, targets, BlockRange::whole(sparse.shape()));
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
    const AggregationTarget st{DimSet::single(pos), &from_sparse};
    const AggregationTarget dt{DimSet::single(pos), &from_dense};
    const AggregationStats stats =
        aggregate_children(sparse, std::span(&st, 1),
                           BlockRange::whole(sparse.shape()));
    aggregate_children(dense, std::span(&dt, 1),
                       BlockRange::whole(dense.shape()));
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
      dense_targets.push_back({DimSet::single(pos), &expected.back()});
    }
    aggregate_children(dense, dense_targets, BlockRange::whole(dense.shape()),
                       {}, op);
    for (const SparseArray* sparse : {&one_chunk, &small_chunks}) {
      std::vector<DenseArray> children;
      std::vector<AggregationTarget> targets;
      children.reserve(3);
      for (int pos = 0; pos < 3; ++pos) {
        children.emplace_back(dense.shape().without_dim(pos), identity_of(op));
        targets.push_back({DimSet::single(pos), &children.back()});
      }
      const AggregationStats stats =
          aggregate_children(*sparse, targets,
                             BlockRange::whole(sparse->shape()), {}, op);
      EXPECT_EQ(children, expected)
          << to_string(op) << ", " << sparse->num_chunks() << " chunks";
      EXPECT_EQ(stats.cells_scanned, sparse->nnz());
      EXPECT_EQ(stats.updates, sparse->nnz() * 3);
    }
  }
}

// --- region projections: sets of positions over a region of the parent ---

TEST(ProjectTest, KeepAllIsIdentityCopy) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{parent.shape()};
  const AggregationTarget target{DimSet(), &out};
  aggregate_children(parent, std::span(&target, 1),
                     BlockRange::whole(parent.shape()));
  EXPECT_EQ(out, parent);
}

TEST(ProjectTest, KeepNoneSumsEverything) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{std::vector<std::int64_t>{}}};
  const AggregationTarget target{DimSet::full(2), &out};
  aggregate_children(parent, std::span(&target, 1),
                     BlockRange::whole(parent.shape()));
  EXPECT_EQ(out[0], parent.total());
}

TEST(ProjectTest, MultiDimDropMatchesIteratedSingleDrops) {
  const DenseArray parent = testing::random_dense({4, 3, 5, 2}, 0.6, 13);
  // Drop dims 1 and 3 in one scan...
  DenseArray direct{Shape{{4, 5}}};
  const AggregationTarget both{DimSet::of({1, 3}), &direct};
  aggregate_children(parent, std::span(&both, 1),
                     BlockRange::whole(parent.shape()));
  // ...versus dropping 3 then 1 with one-position targets.
  DenseArray step1{parent.shape().without_dim(3)};
  const AggregationTarget t1{DimSet::single(3), &step1};
  aggregate_children(parent, std::span(&t1, 1),
                     BlockRange::whole(parent.shape()));
  DenseArray step2{step1.shape().without_dim(1)};
  const AggregationTarget t2{DimSet::single(1), &step2};
  aggregate_children(step1, std::span(&t2, 1),
                     BlockRange::whole(step1.shape()));
  EXPECT_EQ(direct, step2);
}

TEST(ProjectTest, SparseMatchesDense) {
  const DenseArray dense = testing::random_dense({5, 6, 4}, 0.3, 41);
  const SparseArray sparse = SparseArray::from_dense(dense, {3, 3, 3});
  DenseArray from_dense{Shape{{6}}};
  DenseArray from_sparse{Shape{{6}}};
  const AggregationTarget dense_target{DimSet::of({0, 2}), &from_dense};
  const AggregationTarget sparse_target{DimSet::of({0, 2}), &from_sparse};
  aggregate_children(dense, std::span(&dense_target, 1),
                     BlockRange::whole(dense.shape()));
  aggregate_children(sparse, std::span(&sparse_target, 1),
                     BlockRange::whole(sparse.shape()));
  EXPECT_EQ(from_dense, from_sparse);
}

TEST(ProjectTest, DroppedPositionOutsideTheParentRejected) {
  const DenseArray parent = testing::iota_dense({3, 4, 5});
  DenseArray out{Shape{{3, 4, 5}}};
  const AggregationTarget target{DimSet::single(3), &out};
  EXPECT_THROW(aggregate_children(parent, std::span(&target, 1),
                                  BlockRange::whole(parent.shape())),
               InvalidArgument);
}

TEST(ProjectTest, RandomRegionsMatchAPlainLoop) {
  // One scan of a region feeds one to three targets, each dropping a
  // random set of positions, under every operator and several pool sizes.
  // Regions come in every size down to one cell, at both corners and at
  // random places, of dense and sparse sources of non-integer values,
  // whose sums round differently when their order changes. Each child must
  // equal the input-order loop byte for byte; the largest shape stripes
  // its bigger regions over both passes, with and without offset tables.
  struct Source {
    std::vector<std::int64_t> sizes;
    double density;
    std::vector<std::int64_t> chunks;  // empty: no sparse source
  };
  const std::vector<Source> sources{
      {{}, 0.4, {}},
      {{1}, 0.4, {2}},
      {{9}, 0.4, {2}},
      {{5, 1, 6}, 0.4, {2, 2, 2}},
      {{4, 6, 3, 5}, 0.4, {2, 2, 2, 2}},
      {{3, 2, 4, 2, 3}, 0.4, {2, 2, 2, 2, 2}},
      {{60, 45, 37}, 0.3, {8, 8, 8}}};
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const int threads : {1, 2, 4, 7, hw == 0 ? 1 : static_cast<int>(hw)}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  Xoshiro256ss rng(2024);
  std::array<std::int64_t, 2> forms{};  // sparse chunks: [0] list, [1] bitmap
  for (const Source& source : sources) {
    const std::vector<std::int64_t>& sizes = source.sizes;
    const int m = static_cast<int>(sizes.size());
    const DenseArray dense =
        testing::fractional_dense(sizes, source.density, 7 + sizes.size());
    std::optional<SparseArray> sparse;
    if (!source.chunks.empty()) {
      sparse = SparseArray::from_dense(dense, source.chunks);
      for (std::int64_t c = 0; c < sparse->num_chunks(); ++c) {
        if (!sparse->chunk_positions(c).empty()) {
          ++forms[sparse->chunk_positions(c).bitmap() ? 1 : 0];
        }
      }
    }
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<std::int64_t> lo(sizes.size());
      std::vector<std::int64_t> hi(sizes.size());
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
      }
      const BlockRange region(lo, hi);
      std::vector<DimSet> dropped(1 + rng.next_below(3));
      for (DimSet& set : dropped) {
        set = DimSet::from_mask(static_cast<std::uint32_t>(
            rng.next_below(std::uint64_t{1} << m)));
      }
      std::int64_t nnz_in_region = 0;
      if (sparse) {
        sparse->for_each_nonzero([&](const std::int64_t* index, Value) {
          nnz_in_region += region.contains(index) ? 1 : 0;
        });
      }
      for (const AggregateOp op : {AggregateOp::kSum, AggregateOp::kCount,
                                   AggregateOp::kMin, AggregateOp::kMax}) {
        std::vector<DenseArray> expected;
        std::vector<DenseArray> expected_sparse;
        for (const DimSet set : dropped) {
          expected.push_back(
              testing::input_order_scan(dense, region, set, op));
          if (sparse) {
            expected_sparse.push_back(
                testing::input_order_scan(*sparse, region, set, op));
          }
        }
        for (const std::unique_ptr<ThreadPool>& pool : pools) {
          SCOPED_TRACE(::testing::Message()
                       << to_string(op) << " " << dense.shape().to_string()
                       << " region " << region.to_string() << ", "
                       << dropped.size() << " targets, first dropping "
                       << dropped.front().to_string() << ", "
                       << pool->size() << " threads");
          AggregateOptions options;
          options.pool = pool.get();
          const auto expect_scan = [&](const auto& parent,
                                       const std::vector<DenseArray>& want,
                                       std::int64_t cells) {
            std::vector<DenseArray> children;
            std::vector<AggregationTarget> targets;
            children.reserve(dropped.size());
            for (std::size_t t = 0; t < dropped.size(); ++t) {
              children.emplace_back(want[t].shape(), identity_of(op));
              targets.push_back({dropped[t], &children.back()});
            }
            AggregationStats stats;
            if constexpr (std::is_same_v<std::decay_t<decltype(parent)>,
                                         SparseArray>) {
              stats = aggregate_children(parent, targets, region, options, op);
            } else {
              stats = aggregate_children(parent, targets, region, options, op,
                                         /*input_level=*/true);
            }
            for (std::size_t t = 0; t < dropped.size(); ++t) {
              EXPECT_EQ(std::memcmp(children[t].data(), want[t].data(),
                                    static_cast<std::size_t>(want[t].bytes())),
                        0)
                  << "target " << t << " drops " << dropped[t].to_string();
            }
            EXPECT_EQ(stats.cells_scanned, cells);
            EXPECT_EQ(stats.updates, cells * std::ssize(dropped));
          };
          expect_scan(dense, expected, region.size());
          if (sparse) expect_scan(*sparse, expected_sparse, nnz_in_region);
        }
      }
    }
  }
  EXPECT_GT(forms[0], 0);
  EXPECT_GT(forms[1], 0);
}

TEST(ProjectTest, RegionOutsideTheParentRejected) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{{2}}};
  const AggregationTarget target{DimSet::single(1), &out};
  EXPECT_THROW(aggregate_children(parent, std::span(&target, 1),
                                  BlockRange({2, 0}, {4, 4}), {},
                                  AggregateOp::kSum, true),
               InvalidArgument);
  EXPECT_THROW(aggregate_children(parent, std::span(&target, 1),
                                  BlockRange({0}, {2}), {}, AggregateOp::kSum,
                                  true),
               InvalidArgument);
  const SparseArray sparse = SparseArray::from_dense(parent, {2, 2});
  DenseArray row{Shape{{4}}};
  const AggregationTarget row_target{DimSet::single(0), &row};
  EXPECT_THROW(aggregate_children(sparse, std::span(&row_target, 1),
                                  BlockRange({0, 1}, {1, 5}), {},
                                  AggregateOp::kSum),
               InvalidArgument);
}

TEST(ProjectTest, WrongOutputShapeRejected) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{{3}}};
  const AggregationTarget target{DimSet::single(0), &out};
  EXPECT_THROW(aggregate_children(parent, std::span(&target, 1),
                                  BlockRange::whole(parent.shape())),
               InvalidArgument);
  // A region's child has the region's extents.
  const AggregationTarget region_target{DimSet::single(1), &out};
  EXPECT_THROW(aggregate_children(parent, std::span(&region_target, 1),
                                  BlockRange({0, 0}, {2, 4}), {},
                                  AggregateOp::kSum, true),
               InvalidArgument);
}

}  // namespace
}  // namespace cubist
