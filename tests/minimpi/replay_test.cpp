// The one replay under the tuner, the verifier and the audit: it links
// per-rank programs as the transport would, stops a rank at a receive no
// send satisfies, and leaves a send nothing receives untaken, where the
// verifier finds it.
#include "minimpi/event_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cubist/cubist.h"

namespace cubist {
namespace {

constexpr std::int64_t kBytes = 8;

TraceEvent send_to(int peer, std::uint64_t tag) {
  return {TraceEventKind::kSend, peer, tag, kBytes};
}

TraceEvent recv_from(int peer, std::uint64_t tag) {
  return {TraceEventKind::kRecv, peer, tag, kBytes};
}

TraceEvent combine_of(int peer, std::uint64_t tag) {
  return {TraceEventKind::kCombine, peer, tag, 1};
}

TEST(ReplayTest, ChannelsAreKeyedByTag) {
  // Two messages from rank 0 to rank 1 under tags 5 and 6, received in
  // the opposite order: each receive takes its own tag's send.
  EventTrace programs;
  programs.ranks = {{send_to(1, 5), send_to(1, 6)},
                    {recv_from(0, 6), recv_from(0, 5)}};
  EXPECT_EQ(replay(programs), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(programs.ranks[1][0].match_seq, 1u);
  EXPECT_EQ(programs.ranks[1][1].match_seq, 0u);
  // Sends link to nothing.
  EXPECT_EQ(programs.ranks[0][0].match_seq, kNoTraceSeq);
  EXPECT_EQ(programs.ranks[0][1].match_seq, kNoTraceSeq);
}

TEST(ReplayTest, ReceiveWithoutSendStopsItsRank) {
  // Rank 1's second receive has no send: the rank stops there, and
  // nothing after it runs or carries a link, even one set beforehand.
  EventTrace programs;
  programs.ranks = {{send_to(1, 5)},
                    {recv_from(0, 5), combine_of(0, 5), recv_from(0, 5),
                     combine_of(0, 5)}};
  programs.ranks[1][3].operand_seq = 2;
  std::vector<std::pair<int, std::size_t>> visited;
  const std::vector<std::size_t> stopped_at =
      replay(programs, [&](int rank, std::size_t index, const TraceEvent&) {
        visited.emplace_back(rank, index);
      });
  EXPECT_EQ(stopped_at, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(visited, (std::vector<std::pair<int, std::size_t>>{
                         {0, 0}, {1, 0}, {1, 1}}));
  EXPECT_EQ(programs.ranks[1][2].match_seq, kNoTraceSeq);
  EXPECT_EQ(programs.ranks[1][3].operand_seq, kNoTraceSeq);
}

TEST(ReplayTest, ReceiveCycleStopsBothRanksAtTheirFirstReceive) {
  // Each rank receives from the other before it sends: neither moves.
  EventTrace programs;
  programs.ranks = {{recv_from(1, 0), send_to(1, 0)},
                    {recv_from(0, 0), send_to(0, 0)}};
  int visits = 0;
  const std::vector<std::size_t> stopped_at = replay(
      programs, [&](int, std::size_t, const TraceEvent&) { ++visits; });
  EXPECT_EQ(stopped_at, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(visits, 0);
}

TEST(ReplayTest, CombineFoldsTheReceiveJustBeforeIt) {
  // Rank 0 folds two operands; each combine names the receive before it,
  // and the visitor sees the links filled in.
  EventTrace programs;
  programs.ranks = {{recv_from(1, 3), combine_of(1, 3), recv_from(2, 3),
                     combine_of(2, 3)},
                    {send_to(0, 3)},
                    {send_to(0, 3)}};
  std::vector<std::uint64_t> operands;
  replay(programs, [&](int, std::size_t, const TraceEvent& event) {
    if (event.kind == TraceEventKind::kCombine) {
      operands.push_back(event.operand_seq);
    }
  });
  EXPECT_EQ(operands, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(programs.ranks[0][1].operand_seq, 0u);
  EXPECT_EQ(programs.ranks[0][3].operand_seq, 2u);
  EXPECT_EQ(programs.ranks[0][0].match_seq, 0u);
  EXPECT_EQ(programs.ranks[0][2].match_seq, 0u);
}

TEST(ReplayTest, UnreceivedSendIsLeftUnconsumed) {
  // A send appended to a certified plan runs, but no receive takes it:
  // every rank still runs to its end, no link names the send, and the
  // verifier reports it.
  ScheduleSpec spec;
  spec.sizes = {16, 8};
  spec.log_splits = {1, 0};
  CommPlan plan = build_comm_plan(spec);
  std::vector<TraceEvent>& rank1 = plan.events.ranks[1];
  rank1.push_back(send_to(0, 0));
  const std::size_t extra = rank1.size() - 1;

  EventTrace programs = plan.events;
  const std::vector<std::size_t> stopped_at = replay(programs);
  for (std::size_t r = 0; r < programs.ranks.size(); ++r) {
    EXPECT_EQ(stopped_at[r], programs.ranks[r].size()) << "rank " << r;
  }
  for (const std::vector<TraceEvent>& events : programs.ranks) {
    for (const TraceEvent& e : events) {
      EXPECT_FALSE(e.kind == TraceEventKind::kRecv && e.peer == 1 &&
                   e.match_seq == extra);
    }
  }

  const AnalysisReport report = verify_schedule(spec, plan);
  const auto unmatched = std::find_if(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) {
        return v.code == ViolationCode::kUnmatchedSend;
      });
  ASSERT_NE(unmatched, report.violations.end()) << report.to_string();
  EXPECT_EQ(unmatched->rank, 1);
  EXPECT_EQ(unmatched->actual, kBytes);
}

}  // namespace
}  // namespace cubist
