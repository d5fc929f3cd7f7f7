// The happens-before auditor on real recorded traces: clean runs audit
// clean, and structurally tampered traces (dropped send, cross-tag
// consumption, double consumption, a foreign or out-of-range match, a
// causal cycle) each get their specific diagnosis.
#include <gtest/gtest.h>

#include <algorithm>

#include "cubist/cubist.h"

namespace cubist {
namespace {

bool has_code(const HbAuditReport& report, ViolationCode code) {
  for (const Violation& violation : report.violations) {
    if (violation.code == code) return true;
  }
  return false;
}

/// Records one 4-rank reduce (rank-dependent data) and returns the trace.
EventTrace traced_reduce(std::int64_t chunk_elements = 0) {
  const std::vector<int> group = {0, 1, 2, 3};
  const RunReport run = Runtime::run(
      4, CostModel{},
      [&](Comm& comm) {
        DenseArray block(Shape{{8}});
        for (std::int64_t i = 0; i < block.size(); ++i) {
          block[i] = static_cast<Value>(comm.rank() + 1) *
                     static_cast<Value>(i + 1);
        }
        ReduceOptions options;
        options.max_message_elements = chunk_elements;
        comm.reduce(group, block, /*tag=*/3, AggregateOp::kSum, options);
        comm.barrier();
      },
      /*record_trace=*/true);
  return run.trace;
}

TEST(HbAuditorTest, CleanReduceTraceAuditsClean) {
  const HbAuditReport report = audit_event_trace(traced_reduce());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.events, 0);
  EXPECT_EQ(report.message_edges, 3);  // binomial tree over 4 ranks
  EXPECT_EQ(report.combines_checked, 3);
  EXPECT_EQ(report.barrier_rounds, 1);
}

TEST(HbAuditorTest, ChunkedCleanTraceAuditsClean) {
  const HbAuditReport report = audit_event_trace(
      traced_reduce(/*chunk_elements=*/4));
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.message_edges, 6);  // two chunks per tree edge
}

TEST(HbAuditorTest, DroppedSendIsAnUnmatchedReceive) {
  EventTrace trace = traced_reduce();
  bool tampered = false;
  for (std::vector<TraceEvent>& rank_events : trace.ranks) {
    for (TraceEvent& event : rank_events) {
      if (event.kind == TraceEventKind::kRecv) {
        event.match_seq = kNoTraceSeq;  // the send "never happened"
        tampered = true;
        break;
      }
    }
    if (tampered) break;
  }
  ASSERT_TRUE(tampered);
  const HbAuditReport report = audit_event_trace(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kUnmatchedRecv))
      << report.to_string();
  // The orphaned send is flagged from the other side too.
  EXPECT_TRUE(has_code(report, ViolationCode::kUnmatchedSend));
}

TEST(HbAuditorTest, CrossTagConsumptionIsATagCollision) {
  EventTrace trace = traced_reduce();
  bool tampered = false;
  for (std::vector<TraceEvent>& rank_events : trace.ranks) {
    for (TraceEvent& event : rank_events) {
      if (event.kind == TraceEventKind::kRecv) {
        event.tag += 1;  // claims to have consumed another stream
        tampered = true;
        break;
      }
    }
    if (tampered) break;
  }
  ASSERT_TRUE(tampered);
  const HbAuditReport report = audit_event_trace(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kTagCollision))
      << report.to_string();
}

TEST(HbAuditorTest, DoubleConsumptionIsMalformed) {
  EventTrace trace = traced_reduce(/*chunk_elements=*/4);
  // Point the second chunk's receive at the first chunk's send: one
  // message consumed twice, its sibling never.
  TraceEvent* first = nullptr;
  bool tampered = false;
  for (std::vector<TraceEvent>& rank_events : trace.ranks) {
    for (TraceEvent& event : rank_events) {
      if (event.kind != TraceEventKind::kRecv) continue;
      if (first == nullptr) {
        first = &event;
      } else if (event.peer == first->peer && event.tag == first->tag) {
        event.match_seq = first->match_seq;
        tampered = true;
        break;
      }
    }
    if (tampered) break;
  }
  ASSERT_TRUE(tampered);
  const HbAuditReport report = audit_event_trace(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, ViolationCode::kMalformedTrace))
      << report.to_string();
}

TEST(HbAuditorTest, ForeignOrOutOfRangeMatchesAreMalformed) {
  // Rank 0's first event is its receive from its first binomial child.
  const EventTrace clean = traced_reduce();
  ASSERT_EQ(clean.ranks[0].front().kind, TraceEventKind::kRecv);

  EventTrace out_of_range = clean;
  out_of_range.ranks[0].front().peer = 4;  // no rank 4 in a 4-rank run
  EXPECT_TRUE(has_code(audit_event_trace(out_of_range),
                       ViolationCode::kMalformedTrace));

  // Rank 3 sends only to rank 2: claim rank 0 consumed that send.
  EventTrace foreign = clean;
  const std::vector<TraceEvent>& rank3 = clean.ranks[3];
  const auto send = std::find_if(
      rank3.begin(), rank3.end(),
      [](const TraceEvent& e) { return e.kind == TraceEventKind::kSend; });
  ASSERT_NE(send, rank3.end());
  ASSERT_EQ(send->peer, 2);
  foreign.ranks[0].front().peer = 3;
  foreign.ranks[0].front().match_seq =
      static_cast<std::uint64_t>(send - rank3.begin());
  const HbAuditReport report = audit_event_trace(foreign);
  EXPECT_TRUE(has_code(report, ViolationCode::kMalformedTrace))
      << report.to_string();
  EXPECT_NE(report.to_json().find("malformed_trace"), std::string::npos);
}

TEST(HbAuditorTest, CausalCycleStallsTheReplay) {
  // Each rank first receives the message the other sends only afterwards:
  // every cross-reference is well formed, but no execution could have
  // produced this order, so the happens-before replay cannot finish.
  EventTrace trace;
  for (int r = 0; r < 2; ++r) {
    TraceEvent recv{TraceEventKind::kRecv, 1 - r, /*tag=*/5, 8};
    recv.match_seq = 1;
    trace.ranks.push_back(
        {recv, TraceEvent{TraceEventKind::kSend, 1 - r, /*tag=*/5, 8}});
  }
  const HbAuditReport report = audit_event_trace(trace);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].code, ViolationCode::kMalformedTrace);
  EXPECT_NE(report.violations[0].message.find("stalled"), std::string::npos);
  EXPECT_EQ(report.message_edges, 0);
}

TEST(HbAuditorTest, EmptyTraceAuditsClean) {
  const HbAuditReport report = audit_event_trace(EventTrace{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.events, 0);
}

TEST(HbAuditorTest, UntracedRunYieldsEmptyTrace) {
  const RunReport run = Runtime::run(2, CostModel{}, [](Comm& comm) {
    comm.barrier();
  });
  EXPECT_EQ(run.trace.total_events(), 0);
}

TEST(HbAuditorTest, JsonRenders) {
  const HbAuditReport report = audit_event_trace(traced_reduce());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"message_edges\""), std::string::npos);
}

}  // namespace
}  // namespace cubist
