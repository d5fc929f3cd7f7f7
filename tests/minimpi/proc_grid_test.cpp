#include "minimpi/proc_grid.h"

#include <gtest/gtest.h>

#include <set>

namespace cubist {
namespace {

TEST(ProcGridTest, SizeIsProductOfSplits) {
  EXPECT_EQ(ProcGrid({1, 1, 1}).size(), 8);
  EXPECT_EQ(ProcGrid({2, 1, 0, 0}).size(), 8);
  EXPECT_EQ(ProcGrid({0, 0}).size(), 1);
  EXPECT_EQ(ProcGrid({4}).size(), 16);
}

TEST(ProcGridTest, CoordsRankRoundTrip) {
  const ProcGrid grid({2, 1, 0, 1});
  for (int rank = 0; rank < grid.size(); ++rank) {
    EXPECT_EQ(grid.rank_of(grid.coords_of(rank)), rank);
  }
}

TEST(ProcGridTest, CoordsAreUnique) {
  const ProcGrid grid({1, 2, 1});
  std::set<std::vector<std::int64_t>> seen;
  for (int rank = 0; rank < grid.size(); ++rank) {
    EXPECT_TRUE(seen.insert(grid.coords_of(rank)).second);
  }
}

TEST(ProcGridTest, CoordAccessorMatchesCoordsOf) {
  const ProcGrid grid({1, 2, 1});
  for (int rank = 0; rank < grid.size(); ++rank) {
    const auto coords = grid.coords_of(rank);
    for (int d = 0; d < grid.ndims(); ++d) {
      EXPECT_EQ(grid.coord(rank, d), coords[d]);
    }
  }
}

TEST(ProcGridTest, LeadCountsMatchPaper) {
  // Paper §4: there are p / 2^{k_i} lead processors along dimension i.
  const ProcGrid grid({1, 1, 1});
  for (int d = 0; d < 3; ++d) {
    int leads = 0;
    for (int rank = 0; rank < grid.size(); ++rank) {
      if (grid.is_lead(rank, d)) ++leads;
    }
    EXPECT_EQ(leads, grid.size() / 2);
  }
}

TEST(ProcGridTest, IsLeadForAllDimsOnlyRankZero) {
  const ProcGrid grid({1, 2, 1});
  const DimSet all = DimSet::full(3);
  int leads = 0;
  for (int rank = 0; rank < grid.size(); ++rank) {
    if (grid.is_lead_for(rank, all)) {
      ++leads;
      EXPECT_EQ(rank, 0);
    }
  }
  EXPECT_EQ(leads, 1);
}

TEST(ProcGridTest, IsLeadForEmptySetIsEveryone) {
  const ProcGrid grid({1, 1});
  for (int rank = 0; rank < grid.size(); ++rank) {
    EXPECT_TRUE(grid.is_lead_for(rank, DimSet()));
  }
}

TEST(ProcGridTest, AxisGroupVariesOnlyTargetDim) {
  const ProcGrid grid({1, 2, 1});
  for (int rank = 0; rank < grid.size(); ++rank) {
    for (int d = 0; d < 3; ++d) {
      const auto group = grid.axis_group(rank, d);
      ASSERT_EQ(static_cast<std::int64_t>(group.size()), grid.splits(d));
      for (std::size_t i = 0; i < group.size(); ++i) {
        const auto coords = grid.coords_of(group[i]);
        EXPECT_EQ(coords[d], static_cast<std::int64_t>(i));
        for (int e = 0; e < 3; ++e) {
          if (e != d) {
            EXPECT_EQ(coords[e], grid.coord(rank, e));
          }
        }
      }
      // The calling rank is in its own group.
      EXPECT_NE(std::find(group.begin(), group.end(), rank), group.end());
      // Element 0 is the lead.
      EXPECT_TRUE(grid.is_lead(group[0], d));
    }
  }
}

TEST(ProcGridTest, AxisGroupsPartitionTheGrid) {
  const ProcGrid grid({2, 1});
  std::set<int> covered;
  for (int rank = 0; rank < grid.size(); ++rank) {
    if (!grid.is_lead(rank, 0)) continue;
    for (int r : grid.axis_group(rank, 0)) {
      EXPECT_TRUE(covered.insert(r).second);
    }
  }
  EXPECT_EQ(covered.size(), static_cast<std::size_t>(grid.size()));
}

TEST(ProcGridTest, BlocksTileTheArray) {
  const ProcGrid grid({1, 1, 1});
  const std::vector<std::int64_t> extents{8, 8, 8};
  std::int64_t covered = 0;
  for (int rank = 0; rank < grid.size(); ++rank) {
    covered += grid.block(rank, extents).size();
  }
  EXPECT_EQ(covered, 8 * 8 * 8);
}

TEST(ProcGridTest, UnsplitDimensionGivesFullExtent) {
  const ProcGrid grid({2, 0});
  for (int rank = 0; rank < grid.size(); ++rank) {
    const BlockRange block = grid.block(rank, {16, 5});
    EXPECT_EQ(block.extent(1), 5);
    EXPECT_EQ(block.extent(0), 4);
  }
}

TEST(ProcGridTest, ToString) {
  EXPECT_EQ(ProcGrid({1, 1, 1, 0}).to_string(), "2x2x2x1");
  EXPECT_EQ(ProcGrid({3, 0}).to_string(), "8x1");
}

TEST(ProcGridTest, InvalidArgumentsThrow) {
  EXPECT_THROW(ProcGrid({}), InvalidArgument);
  EXPECT_THROW(ProcGrid({-1}), InvalidArgument);
  const ProcGrid grid({1, 1});
  EXPECT_THROW(grid.coords_of(4), InvalidArgument);
  EXPECT_THROW(grid.coords_of(-1), InvalidArgument);
  EXPECT_THROW(grid.rank_of({2, 0}), InvalidArgument);
}

}  // namespace
}  // namespace cubist
