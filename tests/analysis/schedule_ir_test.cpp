// The schedule IR is the planner's ops verbatim, and the two seeded
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
  spec.reduce_message_elements = cap;
  return spec;
}

ScheduleIR ir_of(const ScheduleSpec& spec) {
  return build_comm_plan(spec).ir();
}

std::int64_t count_kind(const ScheduleIR& ir, CommEvent::Kind kind) {
  std::int64_t count = 0;
  for (const RankProgram& rank : ir.ranks) {
    for (const CommEvent& event : rank.events) {
      if (event.kind == kind) ++count;
    }
  }
  return count;
}

TEST(ScheduleIrTest, IrIsThePlanOpsVerbatim) {
  const ScheduleSpec spec = spec_of({4, 4, 4}, {1, 1, 0});
  const CommPlan plan = build_comm_plan(spec);
  const ScheduleIR ir = plan.ir();
  ASSERT_EQ(ir.num_ranks, plan.num_ranks);
  ASSERT_EQ(static_cast<int>(ir.ranks.size()), plan.num_ranks);
  for (int r = 0; r < plan.num_ranks; ++r) {
    EXPECT_EQ(ir.ranks[static_cast<std::size_t>(r)].events,
              plan.ranks[static_cast<std::size_t>(r)].ops);
  }
  EXPECT_EQ(ir.total_events(),
            plan.total_messages() * 2 +
                count_kind(ir, CommEvent::Kind::kCombine));
}

TEST(ScheduleIrTest, EveryReceiveFeedsACombine) {
  const ScheduleIR ir = ir_of(spec_of({4, 4, 4}, {2, 0, 0}, /*cap=*/4));
  for (const RankProgram& rank : ir.ranks) {
    for (std::size_t i = 0; i < rank.events.size(); ++i) {
      if (rank.events[i].kind != CommEvent::Kind::kRecv) continue;
      ASSERT_LT(i + 1, rank.events.size());
      const CommEvent& combine = rank.events[i + 1];
      EXPECT_EQ(combine.kind, CommEvent::Kind::kCombine);
      EXPECT_EQ(combine.view, rank.events[i].view);
      EXPECT_EQ(combine.offset, rank.events[i].offset);
      EXPECT_EQ(combine.elements, rank.events[i].elements);
    }
  }
}

TEST(ScheduleIrTest, WireTagDefaultsToViewMask) {
  CommEvent event{CommEvent::Kind::kSend, 1, /*view=*/5, 16};
  EXPECT_EQ(event.wire_tag(), 5u);
  event.tag = 99;
  EXPECT_EQ(event.wire_tag(), 99u);
}

TEST(ScheduleIrTest, DropSendRemovesExactlyOneSend) {
  ScheduleIR ir = ir_of(spec_of({4, 4, 4}, {2, 0, 0}));
  const std::int64_t sends = count_kind(ir, CommEvent::Kind::kSend);
  const std::string note =
      apply_schedule_mutation(ir, ScheduleMutation::kDropSend);
  EXPECT_FALSE(note.empty());
  EXPECT_EQ(count_kind(ir, CommEvent::Kind::kSend), sends - 1);
}

TEST(ScheduleIrTest, TagCollisionMutationCreatesACollidingWildcardStream) {
  // The mutation swaps two chunk receives of one view from one source,
  // with their combines: the same events, in another order on one rank.
  const ScheduleIR clean = ir_of(spec_of({4, 4, 4}, {2, 0, 0}, /*cap=*/4));
  ScheduleIR ir = clean;
  const std::string note =
      apply_schedule_mutation(ir, ScheduleMutation::kTagCollision);
  EXPECT_FALSE(note.empty());
  int changed_ranks = 0;
  for (int r = 0; r < ir.num_ranks; ++r) {
    const std::vector<CommEvent>& before =
        clean.ranks[static_cast<std::size_t>(r)].events;
    const std::vector<CommEvent>& after =
        ir.ranks[static_cast<std::size_t>(r)].events;
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
    EXPECT_EQ(after[moved[0]].kind, CommEvent::Kind::kRecv);
    EXPECT_EQ(after[moved[0]].peer, after[moved[2]].peer);
    EXPECT_EQ(after[moved[0]].wire_tag(), after[moved[2]].wire_tag());
    EXPECT_NE(after[moved[0]].offset, after[moved[2]].offset);
    EXPECT_EQ(after[moved[1]].kind, CommEvent::Kind::kCombine);
    EXPECT_EQ(after[moved[1]].offset, after[moved[0]].offset);
  }
  EXPECT_EQ(changed_ranks, 1);
  EXPECT_EQ(count_kind(ir, CommEvent::Kind::kRecv),
            count_kind(clean, CommEvent::Kind::kRecv));
}

TEST(ScheduleIrTest, MutationsInexpressibleWithoutCommunication) {
  for (ScheduleMutation mutation :
       {ScheduleMutation::kDropSend, ScheduleMutation::kTagCollision}) {
    ScheduleIR ir = ir_of(spec_of({4, 4}, {0, 0}));
    EXPECT_EQ(apply_schedule_mutation(ir, mutation), "")
        << to_string(mutation);
  }
  // Unchunked, each source sends each view once: no two receives share
  // a channel, so there is no pair to swap.
  ScheduleIR ir = ir_of(spec_of({4, 4, 4}, {2, 0, 0}));
  EXPECT_EQ(apply_schedule_mutation(ir, ScheduleMutation::kTagCollision), "");
}

TEST(ScheduleIrTest, DescribeRendersEvents) {
  const ScheduleIR ir = ir_of(spec_of({4, 4, 4}, {1, 1, 0}));
  for (int r = 0; r < ir.num_ranks; ++r) {
    const RankProgram& rank = ir.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < rank.events.size(); ++i) {
      EXPECT_FALSE(ir.describe(r, i).empty());
    }
  }
}

}  // namespace
}  // namespace cubist
