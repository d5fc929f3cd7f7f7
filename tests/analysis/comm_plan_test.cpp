// The static plan must mirror the Figure-5 program exactly: per-view
// volumes equal to Lemma 1, message counts governed by the reduction cap,
// final placement on the lead processors.
#include <gtest/gtest.h>

#include "cubist/cubist.h"

namespace cubist {
namespace {

ScheduleSpec spec_of(std::vector<std::int64_t> sizes,
                     std::vector<int> log_splits,
                     std::int64_t cap = 0) {
  ScheduleSpec spec;
  spec.sizes = std::move(sizes);
  spec.log_splits = std::move(log_splits);
  spec.reduce_message_elements = cap;
  return spec;
}

TEST(CommPlanTest, PlannedVolumesMatchLemma1) {
  const ScheduleSpec spec = spec_of({16, 8, 8}, {1, 1, 0});
  const CommPlan plan = build_comm_plan(spec);
  EXPECT_EQ(plan.num_ranks, 4);
  const auto predicted = volume_by_view_elements(spec.sizes, spec.log_splits);
  for (const auto& [mask, elements] : predicted) {
    const auto it = plan.elements_by_view.find(mask);
    const std::int64_t planned =
        it == plan.elements_by_view.end() ? 0 : it->second;
    EXPECT_EQ(planned, elements) << DimSet::from_mask(mask).to_string();
  }
  EXPECT_EQ(plan.total_elements(),
            total_volume_elements(spec.sizes, spec.log_splits));
}

TEST(CommPlanTest, Lemma1ExactEvenForUnevenBalancedSplits) {
  // 7x5x3 does not divide 2x2x2 evenly; the balanced-split block sizes
  // still sum so the per-edge closed form holds exactly.
  const ScheduleSpec spec = spec_of({7, 5, 3}, {1, 1, 1});
  const CommPlan plan = build_comm_plan(spec);
  const auto predicted = volume_by_view_elements(spec.sizes, spec.log_splits);
  for (const auto& [mask, elements] : predicted) {
    const auto it = plan.elements_by_view.find(mask);
    const std::int64_t planned =
        it == plan.elements_by_view.end() ? 0 : it->second;
    EXPECT_EQ(planned, elements) << DimSet::from_mask(mask).to_string();
  }
}

TEST(CommPlanTest, MessageCapMultipliesMessagesNotVolume) {
  const ScheduleSpec whole = spec_of({16, 16}, {1, 1});
  const ScheduleSpec capped = spec_of({16, 16}, {1, 1}, /*cap=*/4);
  const CommPlan whole_plan = build_comm_plan(whole);
  const CommPlan capped_plan = build_comm_plan(capped);
  EXPECT_EQ(whole_plan.total_elements(), capped_plan.total_elements());
  EXPECT_GT(capped_plan.total_messages(), whole_plan.total_messages());
}

TEST(CommPlanTest, FinalViewsLandOnLeads) {
  const ScheduleSpec spec = spec_of({8, 8, 8}, {1, 1, 1});
  const CommPlan plan = build_comm_plan(spec);
  const ProcGrid grid(spec.log_splits);
  const int n = grid.ndims();
  for (int rank = 0; rank < plan.num_ranks; ++rank) {
    for (std::uint32_t mask :
         plan.ranks[static_cast<std::size_t>(rank)].final_views) {
      const DimSet aggregated = DimSet::from_mask(mask).complement(n);
      EXPECT_TRUE(grid.is_lead_for(rank, aggregated))
          << "rank " << rank << " view "
          << DimSet::from_mask(mask).to_string();
    }
  }
  // Rank 0 is the lead for everything: it finalizes all proper views.
  EXPECT_EQ(plan.ranks[0].final_views.size(),
            static_cast<std::size_t>((1u << n) - 1));
}

TEST(CommPlanTest, SingleRankPlansNoTraffic) {
  const CommPlan plan = build_comm_plan(spec_of({8, 4}, {0, 0}));
  EXPECT_EQ(plan.num_ranks, 1);
  EXPECT_EQ(plan.total_messages(), 0);
  EXPECT_EQ(plan.total_elements(), 0);
  EXPECT_TRUE(plan.ranks[0].ops.empty());
}

TEST(CommPlanTest, RejectsBadSpecs) {
  EXPECT_THROW(build_comm_plan(spec_of({}, {})), InvalidArgument);
  EXPECT_THROW(build_comm_plan(spec_of({8}, {1, 1})), InvalidArgument);
  EXPECT_THROW(build_comm_plan(spec_of({8}, {0}, -1)), InvalidArgument);
}

}  // namespace
}  // namespace cubist
