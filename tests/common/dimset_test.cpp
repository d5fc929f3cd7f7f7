#include "common/dimset.h"

#include <gtest/gtest.h>

#include <set>

namespace cubist {
namespace {

TEST(DimSetTest, DefaultIsEmpty) {
  DimSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.mask(), 0u);
}

TEST(DimSetTest, FullContainsExactlyFirstN) {
  const DimSet s = DimSet::full(4);
  EXPECT_EQ(s.size(), 4);
  for (int d = 0; d < 4; ++d) {
    EXPECT_TRUE(s.contains(d)) << d;
  }
  EXPECT_FALSE(s.contains(4));
}

TEST(DimSetTest, FullOfMaxDimsDoesNotOverflow) {
  const DimSet s = DimSet::full(kMaxDims);
  EXPECT_EQ(s.size(), kMaxDims);
  EXPECT_TRUE(s.contains(kMaxDims - 1));
}

TEST(DimSetTest, SingleAndWithWithout) {
  DimSet s = DimSet::single(3);
  EXPECT_EQ(s.size(), 1);
  EXPECT_TRUE(s.contains(3));
  s = s.with(1);
  EXPECT_EQ(s.dims(), (std::vector<int>{1, 3}));
  s = s.without(3);
  EXPECT_EQ(s.dims(), (std::vector<int>{1}));
  // Removing an absent element is a no-op.
  EXPECT_EQ(s.without(5), s);
}

TEST(DimSetTest, OfInitializerListMatchesWith) {
  EXPECT_EQ(DimSet::of({0, 2, 5}), DimSet().with(0).with(2).with(5));
  EXPECT_EQ(DimSet::of(std::vector<int>{2, 0}), DimSet::of({0, 2}));
}

TEST(DimSetTest, SetAlgebra) {
  const DimSet a = DimSet::of({0, 1, 3});
  const DimSet b = DimSet::of({1, 2});
  EXPECT_EQ(a.union_with(b), DimSet::of({0, 1, 2, 3}));
  EXPECT_EQ(a.intersect(b), DimSet::of({1}));
  EXPECT_EQ(a.minus(b), DimSet::of({0, 3}));
  EXPECT_EQ(b.minus(a), DimSet::of({2}));
}

TEST(DimSetTest, ComplementWithinN) {
  const DimSet a = DimSet::of({0, 2});
  EXPECT_EQ(a.complement(4), DimSet::of({1, 3}));
  EXPECT_EQ(DimSet().complement(3), DimSet::full(3));
  EXPECT_EQ(DimSet::full(3).complement(3), DimSet());
  // Complement is an involution.
  EXPECT_EQ(a.complement(5).complement(5), a);
}

TEST(DimSetTest, SubsetRelation) {
  EXPECT_TRUE(DimSet::of({1}).is_subset_of(DimSet::of({0, 1})));
  EXPECT_TRUE(DimSet().is_subset_of(DimSet()));
  EXPECT_FALSE(DimSet::of({2}).is_subset_of(DimSet::of({0, 1})));
  EXPECT_TRUE(DimSet::of({0, 1}).is_subset_of(DimSet::of({0, 1})));
}

TEST(DimSetTest, MinMaxDim) {
  const DimSet s = DimSet::of({2, 5, 9});
  EXPECT_EQ(s.min_dim(), 2);
  EXPECT_EQ(s.max_dim(), 9);
  EXPECT_THROW(DimSet().min_dim(), InvalidArgument);
  EXPECT_THROW(DimSet().max_dim(), InvalidArgument);
}

TEST(DimSetTest, PositionOfCountsTheMembersBelow) {
  const DimSet s = DimSet::of({2, 5, 9, 31});
  const std::vector<int> dims = s.dims();
  for (int pos = 0; pos < static_cast<int>(dims.size()); ++pos) {
    EXPECT_EQ(s.position_of(dims[static_cast<std::size_t>(pos)]), pos);
  }
  EXPECT_EQ(DimSet::single(0).position_of(0), 0);
  // A dimension outside the set has no position.
  EXPECT_THROW(s.position_of(3), InvalidArgument);
  EXPECT_THROW(s.position_of(-1), InvalidArgument);
  EXPECT_THROW(s.position_of(kMaxDims), InvalidArgument);
  EXPECT_THROW(DimSet().position_of(0), InvalidArgument);
}

TEST(DimSetTest, DimsAscending) {
  EXPECT_EQ(DimSet::of({7, 0, 3}).dims(), (std::vector<int>{0, 3, 7}));
  EXPECT_TRUE(DimSet().dims().empty());
}

TEST(DimSetTest, MaskRoundTrip) {
  for (std::uint32_t mask = 0; mask < 64; ++mask) {
    EXPECT_EQ(DimSet::from_mask(mask).mask(), mask);
  }
}

TEST(DimSetTest, ToString) {
  EXPECT_EQ(DimSet().to_string(), "{}");
  EXPECT_EQ(DimSet::of({0, 2}).to_string(), "{0,2}");
}

TEST(DimSetTest, ToLettersMatchesPaperNaming) {
  EXPECT_EQ(DimSet::of({0, 1, 2}).to_letters(), "ABC");
  EXPECT_EQ(DimSet::of({0, 2}).to_letters(), "AC");
  EXPECT_EQ(DimSet().to_letters(), "all");
}

TEST(DimSetTest, OrderingIsTotalOverLattice) {
  std::set<DimSet> all;
  for (std::uint32_t mask = 0; mask < 32; ++mask) {
    all.insert(DimSet::from_mask(mask));
  }
  EXPECT_EQ(all.size(), 32u);  // every subset distinct under operator<
}

TEST(DimSetTest, PowerSetEnumerationViaMasks) {
  // 2^n subsets of full(n), all subsets of the full set.
  const int n = 5;
  int count = 0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    EXPECT_TRUE(DimSet::from_mask(mask).is_subset_of(DimSet::full(n)));
    ++count;
  }
  EXPECT_EQ(count, 32);
}

}  // namespace
}  // namespace cubist
