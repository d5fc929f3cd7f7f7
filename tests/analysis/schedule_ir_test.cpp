// The schedule IR is the planner's ops verbatim — each rank's
// RankPlan::ops, written in the run's own TraceEvents — and the two seeded
// mutations are expressible exactly when the schedule has a site for
// them.
#include <gtest/gtest.h>

#include "cubist/cubist.h"

namespace cubist {
namespace {

ScheduleSpec spec_of(std::vector<std::int64_t> sizes,
                     std::vector<int> log_splits, std::int64_t cap = 0) {
  ScheduleSpec spec;
  spec.sizes = std::move(sizes);
  spec.log_splits = std::move(log_splits);
  spec.reduce.max_message_elements = cap;
  return spec;
}

std::int64_t count_kind(const CommPlan& plan, TraceEventKind kind) {
  std::int64_t count = 0;
  for (const RankPlan& rank : plan.ranks) {
    for (const TraceEvent& event : rank.ops) {
      if (event.kind == kind) ++count;
    }
  }
  return count;
}

TEST(ScheduleIrTest, IrIsThePlanOpsVerbatim) {
  // One event per send, one per receive and one per combine: the plan's
  // ops are the whole IR, with the gather's sends and receives in it.
  ScheduleSpec spec = spec_of({4, 4, 4}, {1, 1, 0});
  spec.collect_result = true;
  const CommPlan plan = build_comm_plan(spec);
  ASSERT_EQ(static_cast<int>(plan.ranks.size()), plan.num_ranks);
  std::int64_t events = 0;
  for (const RankPlan& rank : plan.ranks) {
    events += static_cast<std::int64_t>(rank.ops.size());
  }
  EXPECT_EQ(events, plan.total_messages() * 2 +
                        count_kind(plan, TraceEventKind::kCombine));
  EXPECT_EQ(count_kind(plan, TraceEventKind::kRecv), plan.total_messages());
}

TEST(ScheduleIrTest, EveryReceiveFeedsACombine) {
  const CommPlan plan =
      build_comm_plan(spec_of({4, 4, 4}, {2, 0, 0}, /*cap=*/4));
  for (const RankPlan& rank : plan.ranks) {
    const std::vector<TraceEvent>& events = rank.ops;
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

TEST(ScheduleIrTest, DropSendRemovesExactlyOneSend) {
  CommPlan plan = build_comm_plan(spec_of({4, 4, 4}, {2, 0, 0}));
  const std::int64_t sends = count_kind(plan, TraceEventKind::kSend);
  const std::string note =
      apply_schedule_mutation(plan, ScheduleMutation::kDropSend);
  EXPECT_FALSE(note.empty());
  EXPECT_EQ(count_kind(plan, TraceEventKind::kSend), sends - 1);
}

TEST(ScheduleIrTest, TagCollisionMutationSwapsTwoChunkReceives) {
  // The mutation swaps two chunk receives of one view from one source,
  // with their combines: the same events, in another order on one rank.
  const CommPlan clean =
      build_comm_plan(spec_of({4, 4, 4}, {2, 0, 0}, /*cap=*/4));
  CommPlan plan = clean;
  const std::string note =
      apply_schedule_mutation(plan, ScheduleMutation::kTagCollision);
  EXPECT_FALSE(note.empty());
  int changed_ranks = 0;
  for (int r = 0; r < plan.num_ranks; ++r) {
    const std::vector<TraceEvent>& before =
        clean.ranks[static_cast<std::size_t>(r)].ops;
    const std::vector<TraceEvent>& after =
        plan.ranks[static_cast<std::size_t>(r)].ops;
    if (before == after) continue;
    ++changed_ranks;
    std::vector<std::size_t> moved;
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i] != before[i]) moved.push_back(i);
    }
    // Two receives and the two combines that follow them.
    ASSERT_EQ(moved.size(), 4u);
    EXPECT_EQ(after[moved[0]], before[moved[2]]);
    EXPECT_EQ(after[moved[2]], before[moved[0]]);
    EXPECT_EQ(after[moved[0]].kind, TraceEventKind::kRecv);
    EXPECT_EQ(after[moved[0]].peer, after[moved[2]].peer);
    EXPECT_EQ(after[moved[0]].tag, after[moved[2]].tag);
    EXPECT_NE(after[moved[0]].offset, after[moved[2]].offset);
    EXPECT_EQ(after[moved[1]].kind, TraceEventKind::kCombine);
    EXPECT_EQ(after[moved[1]].offset, after[moved[0]].offset);
  }
  EXPECT_EQ(changed_ranks, 1);
  EXPECT_EQ(count_kind(plan, TraceEventKind::kRecv),
            count_kind(clean, TraceEventKind::kRecv));
}

TEST(ScheduleIrTest, MutationsInexpressibleWithoutCommunication) {
  for (ScheduleMutation mutation :
       {ScheduleMutation::kDropSend, ScheduleMutation::kTagCollision}) {
    CommPlan plan = build_comm_plan(spec_of({4, 4}, {0, 0}));
    EXPECT_EQ(apply_schedule_mutation(plan, mutation), "")
        << to_string(mutation);
  }
  // Unchunked, each source sends each view once: no two receives share
  // a channel, so there is no pair to swap.
  CommPlan plan = build_comm_plan(spec_of({4, 4, 4}, {2, 0, 0}));
  EXPECT_EQ(apply_schedule_mutation(plan, ScheduleMutation::kTagCollision),
            "");
}

TEST(ScheduleIrTest, DescribeRendersEvents) {
  ScheduleSpec spec = spec_of({4, 4, 4}, {1, 1, 0});
  spec.collect_result = true;
  for (const RankPlan& rank : build_comm_plan(spec).ranks) {
    for (const TraceEvent& event : rank.ops) {
      const std::string text = describe(event);
      EXPECT_EQ(text.rfind(to_string(event.kind), 0), 0u) << text;
      // The view is read off the tag, and the gather's events say so.
      EXPECT_NE(text.find(
                    "view " +
                    DimSet::from_mask(view_of_tag(event.tag)).to_string()),
                std::string::npos)
          << text;
      EXPECT_EQ(text.find("gather") != std::string::npos,
                event.tag >= kGatherTagBase)
          << text;
    }
  }
}

}  // namespace
}  // namespace cubist
