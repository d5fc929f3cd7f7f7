#include "array/aggregate_op.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "array/aggregate.h"
#include "common/thread_pool.h"
#include "test_util.h"

namespace cubist {
namespace {

constexpr AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kCount,
                                   AggregateOp::kMin, AggregateOp::kMax};

/// Every single-dimension child of `parent` from ONE scan of the
/// operator-generic kernel on a pool of `threads`, finalized.
std::vector<DenseArray> kernel_children(const DenseArray& parent,
                                        AggregateOp op, bool input_level,
                                        int threads) {
  std::vector<DenseArray> children;
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    children.emplace_back(parent.shape().without_dim(pos), identity_of(op));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    targets.push_back({DimSet::single(pos), &children[static_cast<std::size_t>(pos)]});
  }
  ThreadPool pool(threads);
  AggregateOptions options;
  options.pool = &pool;
  aggregate_children(parent, targets, BlockRange::whole(parent.shape()),
                     options, op, input_level);
  for (DenseArray& child : children) finalize_view(op, child);
  return children;
}

TEST(AggregateOpTest, ToStringNames) {
  EXPECT_EQ(to_string(AggregateOp::kSum), "sum");
  EXPECT_EQ(to_string(AggregateOp::kCount), "count");
  EXPECT_EQ(to_string(AggregateOp::kMin), "min");
  EXPECT_EQ(to_string(AggregateOp::kMax), "max");
}

TEST(AggregateOpTest, Identities) {
  EXPECT_EQ(identity_of(AggregateOp::kSum), 0.0);
  EXPECT_EQ(identity_of(AggregateOp::kCount), 0.0);
  EXPECT_EQ(identity_of(AggregateOp::kMin),
            std::numeric_limits<Value>::infinity());
  EXPECT_EQ(identity_of(AggregateOp::kMax),
            -std::numeric_limits<Value>::infinity());
}

TEST(AggregateOpTest, CombineSemantics) {
  Value acc = identity_of(AggregateOp::kMin);
  combine(AggregateOp::kMin, acc, 5.0);
  combine(AggregateOp::kMin, acc, 3.0);
  combine(AggregateOp::kMin, acc, 7.0);
  EXPECT_EQ(acc, 3.0);
  acc = identity_of(AggregateOp::kMax);
  combine(AggregateOp::kMax, acc, 5.0);
  combine(AggregateOp::kMax, acc, 9.0);
  EXPECT_EQ(acc, 9.0);
  acc = 0.0;
  combine(AggregateOp::kCount, acc, 1.0);
  combine(AggregateOp::kCount, acc, 1.0);
  EXPECT_EQ(acc, 2.0);
}

TEST(AggregateOpTest, ContributionMapsCountToOne) {
  EXPECT_EQ(contribution_of(AggregateOp::kCount, 7.5), 1.0);
  EXPECT_EQ(contribution_of(AggregateOp::kSum, 7.5), 7.5);
  EXPECT_EQ(contribution_of(AggregateOp::kMin, 7.5), 7.5);
}

TEST(AggregateOpTest, FinalizeReplacesIdentityWithZero) {
  DenseArray a{Shape{{3}}};
  fill_identity(AggregateOp::kMin, a);
  a[1] = 4.0;
  finalize_view(AggregateOp::kMin, a);
  EXPECT_EQ(a[0], 0.0);
  EXPECT_EQ(a[1], 4.0);
  EXPECT_EQ(a[2], 0.0);
}

class AggregateOpKernelTest : public ::testing::TestWithParam<AggregateOp> {};

TEST_P(AggregateOpKernelTest, DenseInputLevelMatchesBruteForce) {
  const AggregateOp op = GetParam();
  const DenseArray parent = testing::random_dense({5, 4, 3}, 0.4, 9);
  for (int pos = 0; pos < 3; ++pos) {
    DenseArray child{parent.shape().without_dim(pos)};
    fill_identity(op, child);
    const AggregationTarget target{DimSet::single(pos), &child};
    aggregate_children(parent, std::span(&target, 1),
                       BlockRange::whole(parent.shape()), {}, op,
                       /*input_level=*/true);
    finalize_view(op, child);
    EXPECT_EQ(child, testing::brute_force_op(parent, pos, op))
        << to_string(op) << " pos=" << pos;
  }
}

TEST_P(AggregateOpKernelTest, StripedAliasedScanMatchesBruteForce) {
  // Big enough to stripe: the children that keep dimension 0 take its
  // slabs, and the child that drops it, which every slab would alias, its
  // own stripes along dimension 1, so both passes run — at both cell
  // levels, on a multi-thread pool.
  const AggregateOp op = GetParam();
  DenseArray parent = testing::random_dense({48, 32, 16}, 0.4, 12);
  ASSERT_GE(parent.size(), 2 * kMinCellsPerStripe);
  const std::vector<DimSet> positions = {
      DimSet::single(0), DimSet::single(1), DimSet::single(2)};
  const StripePlan plan = plan_dense_scan(parent.shape(), positions);
  ASSERT_EQ(plan.slab_dim, 0);
  const auto lone = std::count_if(plan.stripes.begin(), plan.stripes.end(),
                                  [](const ScanStripe& s) { return s.lone; });
  ASSERT_GT(lone, 1);
  ASSERT_GT(std::ssize(plan.stripes) - lone, 1);

  std::vector<DenseArray> children =
      kernel_children(parent, op, /*input_level=*/true, 3);
  for (int pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(children[static_cast<std::size_t>(pos)],
              testing::brute_force_op(parent, pos, op))
        << to_string(op) << " input pos=" << pos;
  }
  // The same cells as a live view: empty cells hold the identity.
  for (std::int64_t i = 0; i < parent.size(); ++i) {
    if (parent[i] == Value{0}) parent[i] = identity_of(op);
  }
  children = kernel_children(parent, op, /*input_level=*/false, 3);
  for (int pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(children[static_cast<std::size_t>(pos)],
              testing::brute_force_op(parent, pos, op, /*input_level=*/false))
        << to_string(op) << " view pos=" << pos;
  }
}

TEST_P(AggregateOpKernelTest, SparseMatchesDense) {
  const AggregateOp op = GetParam();
  const DenseArray dense = testing::random_dense({6, 5, 4}, 0.3, 17);
  const SparseArray sparse = SparseArray::from_dense(dense, {3, 3, 3});
  for (int pos = 0; pos < 3; ++pos) {
    DenseArray from_dense{dense.shape().without_dim(pos)};
    DenseArray from_sparse{dense.shape().without_dim(pos)};
    fill_identity(op, from_dense);
    fill_identity(op, from_sparse);
    const AggregationTarget dense_target{DimSet::single(pos), &from_dense};
    const AggregationTarget sparse_target{DimSet::single(pos), &from_sparse};
    aggregate_children(dense, std::span(&dense_target, 1),
                       BlockRange::whole(dense.shape()), {}, op, true);
    aggregate_children(sparse, std::span(&sparse_target, 1),
                       BlockRange::whole(sparse.shape()), {}, op);
    EXPECT_EQ(from_dense, from_sparse) << to_string(op) << " pos=" << pos;
  }
}

TEST_P(AggregateOpKernelTest, TwoLevelAggregationIsConsistent) {
  // Aggregating twice through the view-level kernel must equal one
  // two-dimension brute force — validates the identity-marker semantics
  // between levels.
  const AggregateOp op = GetParam();
  const DenseArray parent = testing::random_dense({4, 3, 5}, 0.5, 21);
  // Level 1: drop dim 2.
  DenseArray mid{parent.shape().without_dim(2)};
  fill_identity(op, mid);
  const AggregationTarget t1{DimSet::single(2), &mid};
  aggregate_children(parent, std::span(&t1, 1),
                     BlockRange::whole(parent.shape()), {}, op, true);
  // Level 2: drop dim 1 (of the remaining {0,1}).
  DenseArray final_view{mid.shape().without_dim(1)};
  fill_identity(op, final_view);
  const AggregationTarget t2{DimSet::single(1), &final_view};
  aggregate_children(mid, std::span(&t2, 1), BlockRange::whole(mid.shape()), {},
                     op, /*input_level=*/false);
  finalize_view(op, final_view);

  // Brute force in one shot.
  DenseArray expected{Shape{{4}}};
  fill_identity(op, expected);
  std::vector<std::int64_t> idx(3);
  for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
    if (parent[linear] == Value{0}) continue;
    parent.shape().unravel(linear, idx.data());
    combine(op, expected[idx[0]], contribution_of(op, parent[linear]));
  }
  finalize_view(op, expected);
  EXPECT_EQ(final_view, expected) << to_string(op);
}

INSTANTIATE_TEST_SUITE_P(Ops, AggregateOpKernelTest,
                         ::testing::ValuesIn(kAllOps),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(AggregateOpTest, AverageOf) {
  DenseArray sum{Shape{{3}}};
  DenseArray count{Shape{{3}}};
  sum[0] = 10;
  count[0] = 4;
  sum[1] = 9;
  count[1] = 3;
  const DenseArray avg = average_of(sum, count);
  EXPECT_EQ(avg[0], 2.5);
  EXPECT_EQ(avg[1], 3.0);
  EXPECT_EQ(avg[2], 0.0);  // no data -> 0, not NaN
  EXPECT_THROW(average_of(sum, DenseArray{Shape{{2}}}), InvalidArgument);
}

}  // namespace
}  // namespace cubist
