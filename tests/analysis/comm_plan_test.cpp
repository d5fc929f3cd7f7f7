// The static plan must mirror the Figure-5 program exactly: per-view
// volumes equal to Lemma 1, message counts governed by the reduction cap,
// final placement on the lead processors, and its events — the run's own
// TraceEvents — the whole communication program.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "cubist/cubist.h"
#include "test_util.h"

namespace cubist {
namespace {

using testing::count_kind;

ScheduleSpec spec_of(std::vector<std::int64_t> sizes,
                     std::vector<int> log_splits,
                     std::int64_t cap = 0) {
  ScheduleSpec spec;
  spec.sizes = std::move(sizes);
  spec.log_splits = std::move(log_splits);
  spec.reduce.max_message_elements = cap;
  return spec;
}

TEST(CommPlanTest, PlannedVolumesMatchLemma1) {
  const ScheduleSpec spec = spec_of({16, 8, 8}, {1, 1, 0});
  const CommPlan plan = build_comm_plan(spec);
  EXPECT_EQ(plan.num_ranks, 4);
  const auto predicted = volume_by_view_elements(spec.sizes, spec.log_splits);
  const auto planned_by_view = elements_by_view(plan);
  std::int64_t total = 0;
  for (const auto& [mask, elements] : predicted) {
    const auto it = planned_by_view.find(mask);
    const std::int64_t planned =
        it == planned_by_view.end() ? 0 : it->second;
    EXPECT_EQ(planned, elements) << DimSet::from_mask(mask).to_string();
    total += planned;
  }
  EXPECT_EQ(total, total_volume_elements(spec.sizes, spec.log_splits));
}

TEST(CommPlanTest, Lemma1ExactEvenForUnevenBalancedSplits) {
  // 7x5x3 does not divide 2x2x2 evenly; the balanced-split block sizes
  // still sum so the per-edge closed form holds exactly.
  const ScheduleSpec spec = spec_of({7, 5, 3}, {1, 1, 1});
  const CommPlan plan = build_comm_plan(spec);
  const auto predicted = volume_by_view_elements(spec.sizes, spec.log_splits);
  const auto planned_by_view = elements_by_view(plan);
  for (const auto& [mask, elements] : predicted) {
    const auto it = planned_by_view.find(mask);
    const std::int64_t planned =
        it == planned_by_view.end() ? 0 : it->second;
    EXPECT_EQ(planned, elements) << DimSet::from_mask(mask).to_string();
  }
}

TEST(CommPlanTest, MessageCapMultipliesMessagesNotVolume) {
  const ScheduleSpec whole = spec_of({16, 16}, {1, 1});
  const ScheduleSpec capped = spec_of({16, 16}, {1, 1}, /*cap=*/4);
  const CommPlan whole_plan = build_comm_plan(whole);
  const CommPlan capped_plan = build_comm_plan(capped);
  EXPECT_EQ(elements_by_view(whole_plan), elements_by_view(capped_plan));
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
  EXPECT_TRUE(elements_by_view(plan).empty());
  EXPECT_TRUE(plan.events.ranks[0].empty());
}

TEST(CommPlanTest, ReducePicksAreRecordedPerAxisGroup) {
  // 8x31x20 on a 4x2x1 grid: the two 4-rank groups that reduce view {1,2}
  // over dimension 0 hold blocks of 16x20 = 320 and 15x20 = 300 cells,
  // either side of the tuner's switch from binomial to ring, so the two
  // groups of one view pick differently.
  ScheduleSpec spec = spec_of({8, 31, 20}, {2, 1, 0});
  spec.reduce.algorithm = ReduceAlgorithm::kAuto;
  const CommPlan plan = build_comm_plan(spec);
  const std::uint32_t view12 = DimSet::of({1, 2}).mask();
  std::map<ReduceAlgorithm, int> view12_picks;
  for (const auto& [group, algorithm] : plan.algorithm_by_group) {
    if (group.first == view12) ++view12_picks[algorithm];
  }
  EXPECT_EQ(view12_picks.size(), 2u);
  EXPECT_EQ(view12_picks[ReduceAlgorithm::kRing], 1);
  EXPECT_EQ(view12_picks[ReduceAlgorithm::kBinomial], 1);

  // Each rank's planned events for each view it reduces are exactly the
  // reduce_program of its group's recorded pick, and no rank reduces a
  // view outside a recorded group.
  const ProcGrid grid(spec.log_splits);
  std::set<std::pair<int, std::uint32_t>> covered;
  for (const auto& [group, algorithm] : plan.algorithm_by_group) {
    const auto& [view, ranks] = group;
    const int g = static_cast<int>(ranks.size());
    for (int me = 0; me < g; ++me) {
      const int rank = ranks[static_cast<std::size_t>(me)];
      const BlockRange block = grid.block(rank, spec.sizes);
      std::int64_t total = 1;
      for (const int d : DimSet::from_mask(view).dims()) {
        total *= block.extent(d);
      }
      ReduceOptions resolved = spec.reduce;
      resolved.algorithm = algorithm;
      const std::vector<TraceEvent> expected =
          reduce_program(resolved, ranks, me, total, view);
      std::vector<TraceEvent> planned;
      for (const TraceEvent& op :
           plan.events.ranks[static_cast<std::size_t>(rank)]) {
        if (op.tag == view) planned.push_back(op);
      }
      EXPECT_EQ(planned, expected)
          << "rank " << rank << " view "
          << DimSet::from_mask(view).to_string() << " under "
          << to_string(algorithm);
      covered.insert({rank, view});
    }
  }
  for (int rank = 0; rank < plan.num_ranks; ++rank) {
    for (const TraceEvent& op :
         plan.events.ranks[static_cast<std::size_t>(rank)]) {
      const std::uint32_t view = view_of_tag(op.tag);
      EXPECT_TRUE(covered.count({rank, view}))
          << "rank " << rank << " reduces view "
          << DimSet::from_mask(view).to_string() << " in no recorded group";
    }
  }
}

TEST(CommPlanTest, EventsAreTheWholeProgram) {
  // One event per send, one per receive and one per combine: the plan's
  // events are the whole program, with the gather's sends and receives in
  // it.
  ScheduleSpec spec = spec_of({4, 4, 4}, {1, 1, 0});
  spec.collect_result = true;
  const CommPlan plan = build_comm_plan(spec);
  ASSERT_EQ(static_cast<int>(plan.ranks.size()), plan.num_ranks);
  ASSERT_EQ(static_cast<int>(plan.events.ranks.size()), plan.num_ranks);
  const std::int64_t events = plan.events.total_events();
  EXPECT_EQ(events, plan.total_messages() * 2 +
                        count_kind(plan.events, TraceEventKind::kCombine));
  EXPECT_EQ(count_kind(plan.events, TraceEventKind::kRecv),
            plan.total_messages());
}

TEST(CommPlanTest, EveryReceiveFeedsACombine) {
  const CommPlan plan =
      build_comm_plan(spec_of({4, 4, 4}, {2, 0, 0}, /*cap=*/4));
  for (const std::vector<TraceEvent>& events : plan.events.ranks) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind != TraceEventKind::kRecv) continue;
      ASSERT_LT(i + 1, events.size());
      const TraceEvent& combine = events[i + 1];
      EXPECT_EQ(combine.kind, TraceEventKind::kCombine);
      EXPECT_EQ(combine.tag, events[i].tag);
      EXPECT_EQ(combine.offset, events[i].offset);
      // A receive's size is logical bytes, a combine's elements.
      EXPECT_EQ(combine.units * static_cast<std::int64_t>(sizeof(Value)),
                events[i].units);
    }
  }
}

TEST(CommPlanTest, RejectsBadSpecs) {
  EXPECT_THROW(build_comm_plan(spec_of({}, {})), InvalidArgument);
  EXPECT_THROW(build_comm_plan(spec_of({8}, {1, 1})), InvalidArgument);
  EXPECT_THROW(build_comm_plan(spec_of({8}, {0}, -1)), InvalidArgument);
}

}  // namespace
}  // namespace cubist
