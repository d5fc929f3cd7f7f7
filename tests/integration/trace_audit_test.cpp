// The post-run trace audit on real recorded builds: a clean trace, whole
// or chunked, codec on or off, equals the certified plan, and every
// tampering of the record — a dropped match, cross-tag consumption,
// double consumption, a foreign or out-of-range match, a causal cycle, a
// swapped send offset, a dropped gather receive, an extra event, an empty
// record, a send's wire size above its logical size or, codec off, off
// it, a receive that records other logical bytes, or took other wire
// bytes, than its send shipped — is reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "cubist/cubist.h"
#include "test_util.h"

namespace cubist {
namespace {

/// One audited, gathered build on a 2 x 2 grid, with the plan it was
/// certified against.
struct Recorded {
  ScheduleSpec spec;
  CommPlan plan;
  EventTrace trace;
};

/// Records the build with reduction messages capped at `message_elements`
/// (0: one message per stream), the wire codec on or off.
Recorded record_build(std::int64_t message_elements,
                      bool encode_wire = true) {
  SparseSpec input;
  input.sizes = {8, 6, 4};
  input.density = 0.4;
  input.seed = 5;
  const std::vector<int> log_splits = {1, 1, 0};
  ParallelOptions options;
  options.reduce.algorithm = ReduceAlgorithm::kBinomial;
  options.reduce.max_message_elements = message_elements;
  options.reduce.encode_wire = encode_wire;
  options.audit = true;
  const ParallelCubeReport report = run_parallel_cube(
      input.sizes, log_splits, CostModel{},
      [&](int, const BlockRange& block) {
        return generate_sparse_block(input, block);
      },
      /*collect_result=*/true, options);
  Recorded out;
  out.spec = schedule_spec_of(input.sizes, log_splits, CostModel{},
                              /*collect_result=*/true, options);
  out.plan = build_comm_plan(out.spec);
  out.trace = report.run.trace;
  return out;
}

/// The chunk-pipelined recording every tampering starts from.
const Recorded& recorded_build() {
  static const Recorded recorded = record_build(/*message_elements=*/4);
  return recorded;
}

AnalysisReport audit(const EventTrace& trace) {
  const Recorded& recorded = recorded_build();
  return audit_trace(recorded.spec, recorded.plan, trace);
}

/// The one violation `report` holds (fails the test if there are more).
Violation only_violation(const AnalysisReport& report) {
  EXPECT_EQ(report.violations.size(), 1u) << report.to_string();
  if (report.violations.empty()) return Violation{};
  EXPECT_EQ(report.violations[0].code, ViolationCode::kTraceMismatch);
  return report.violations[0];
}

bool mentions(const Violation& violation, const std::string& text) {
  return violation.message.find(text) != std::string::npos;
}

/// Position of rank `rank`'s first event of `kind`.
std::size_t first_of(const EventTrace& trace, int rank, TraceEventKind kind) {
  const std::vector<TraceEvent>& events =
      trace.ranks[static_cast<std::size_t>(rank)];
  const auto it = std::find_if(
      events.begin(), events.end(),
      [kind](const TraceEvent& e) { return e.kind == kind; });
  EXPECT_NE(it, events.end());
  return static_cast<std::size_t>(it - events.begin());
}

/// Whether some rank sends one stream in more than one chunk.
bool has_chunked_stream(const EventTrace& trace) {
  for (const std::vector<TraceEvent>& events : trace.ranks) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (events[i].kind == TraceEventKind::kSend &&
            events[j].kind == TraceEventKind::kSend &&
            events[i].peer == events[j].peer &&
            events[i].tag == events[j].tag) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(TraceAuditTest, CleanBuildTraceEqualsPlan) {
  // One message per stream: the record holds construction traffic,
  // combines and the gather; rank 0 ends with the gather's receives.
  const Recorded recorded = record_build(/*message_elements=*/0);
  const AnalysisReport report =
      audit_trace(recorded.spec, recorded.plan, recorded.trace);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_EQ(recorded.trace.ranks.size(), 4u);
  EXPECT_FALSE(has_chunked_stream(recorded.trace));
  EXPECT_GT(first_of(recorded.trace, 0, TraceEventKind::kCombine), 0u);
  EXPECT_GE(recorded.trace.ranks[0].back().tag, kGatherTagBase);
  EXPECT_EQ(recorded.trace.ranks[0].back().kind, TraceEventKind::kRecv);
}

TEST(TraceAuditTest, ChunkedCleanBuildTraceEqualsPlan) {
  // Capped at 4 elements a message, streams split into chunks, and the
  // record still equals the plan chunk for chunk.
  const Recorded& recorded = recorded_build();
  const AnalysisReport report = audit(recorded.trace);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_EQ(recorded.trace.ranks.size(), 4u);
  EXPECT_TRUE(has_chunked_stream(recorded.trace));
  EXPECT_GE(recorded.trace.ranks[0].back().tag, kGatherTagBase);
}

TEST(TraceAuditTest, DroppedMatchIsReported) {
  // A receive whose matched send vanished from the record.
  EventTrace trace = recorded_build().trace;
  const std::size_t recv = first_of(trace, 0, TraceEventKind::kRecv);
  trace.ranks[0][recv].match_seq = kNoTraceSeq;
  const Violation v = only_violation(audit(trace));
  EXPECT_EQ(v.rank, 0);
  EXPECT_EQ(v.actual, -1);
  EXPECT_TRUE(mentions(v, "consumed send")) << v.to_string();
}

TEST(TraceAuditTest, CrossTagConsumptionIsReported) {
  // A receive that claims to have consumed another stream's message.
  EventTrace trace = recorded_build().trace;
  const std::size_t recv = first_of(trace, 0, TraceEventKind::kRecv);
  trace.ranks[0][recv].tag += 1;
  const Violation v = only_violation(audit(trace));
  EXPECT_EQ(v.rank, 0);
  EXPECT_TRUE(mentions(v, "wire tag")) << v.to_string();
}

TEST(TraceAuditTest, DoubleConsumptionIsReported) {
  // The second chunk's receive points at the first chunk's send: one
  // message consumed twice, its sibling never.
  EventTrace trace = recorded_build().trace;
  std::vector<TraceEvent>& events = trace.ranks[0];
  const std::size_t first = first_of(trace, 0, TraceEventKind::kRecv);
  const auto second = std::find_if(
      events.begin() + static_cast<std::ptrdiff_t>(first) + 1, events.end(),
      [&](const TraceEvent& e) {
        return e.kind == TraceEventKind::kRecv &&
               e.peer == events[first].peer && e.tag == events[first].tag;
      });
  ASSERT_NE(second, events.end());
  second->match_seq = events[first].match_seq;
  const Violation v = only_violation(audit(trace));
  EXPECT_TRUE(mentions(v, "consumed send")) << v.to_string();
}

TEST(TraceAuditTest, ForeignOrOutOfRangeMatchesAreReported) {
  const EventTrace& clean = recorded_build().trace;
  const std::size_t recv = first_of(clean, 0, TraceEventKind::kRecv);

  EventTrace out_of_range = clean;
  out_of_range.ranks[0][recv].peer = 4;  // no rank 4 in a 4-rank run
  EXPECT_TRUE(mentions(only_violation(audit(out_of_range)), "peer"));

  // Claim rank 0 consumed a send that rank 3 addressed to another rank.
  const std::vector<TraceEvent>& rank3 = clean.ranks[3];
  const auto send = std::find_if(
      rank3.begin(), rank3.end(), [](const TraceEvent& e) {
        return e.kind == TraceEventKind::kSend && e.peer != 0;
      });
  ASSERT_NE(send, rank3.end());
  EventTrace foreign = clean;
  foreign.ranks[0][recv].peer = 3;
  foreign.ranks[0][recv].match_seq =
      static_cast<std::uint64_t>(send - rank3.begin());
  EXPECT_EQ(only_violation(audit(foreign)).rank, 0);
}

TEST(TraceAuditTest, CausalCycleIsReported) {
  // Rank 1 first receives a message that rank 0 sends only at its end,
  // after receiving from rank 1: every cross-reference is well formed,
  // but no execution could have produced this order.
  EventTrace trace = recorded_build().trace;
  TraceEvent late_send{TraceEventKind::kSend, 1, /*tag=*/0, 8};
  trace.ranks[0].push_back(late_send);
  TraceEvent early_recv{TraceEventKind::kRecv, 0, /*tag=*/0, 8};
  early_recv.match_seq = trace.ranks[0].size() - 1;
  trace.ranks[1].insert(trace.ranks[1].begin(), early_recv);
  const AnalysisReport report = audit(trace);
  // Rank 1's record no longer starts as planned, and rank 0's (whose
  // receives now point into rank 1's shifted record) diverges too.
  ASSERT_EQ(report.violations.size(), 2u) << report.to_string();
  EXPECT_EQ(report.violations[0].rank, 0);
  EXPECT_EQ(report.violations[1].rank, 1);
  EXPECT_TRUE(mentions(report.violations[1], "event 0 differs"))
      << report.to_string();
}

TEST(TraceAuditTest, SwappedSendOffsetIsReported) {
  // Two chunk sends of one stream trade offsets: sizes, peers and tags
  // still agree, only the chunk each carries is wrong.
  EventTrace trace = recorded_build().trace;
  int rank = -1;
  std::size_t a = 0;
  std::size_t b = 0;
  for (int r = 0; r < 4 && rank < 0; ++r) {
    const std::vector<TraceEvent>& events =
        trace.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < events.size() && rank < 0; ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (events[i].kind == TraceEventKind::kSend &&
            events[j].kind == TraceEventKind::kSend &&
            events[i].peer == events[j].peer &&
            events[i].tag == events[j].tag &&
            events[i].offset != events[j].offset) {
          rank = r;
          a = i;
          b = j;
          break;
        }
      }
    }
  }
  ASSERT_GE(rank, 0);
  std::vector<TraceEvent>& events =
      trace.ranks[static_cast<std::size_t>(rank)];
  std::swap(events[a].offset, events[b].offset);
  const Violation v = only_violation(audit(trace));
  EXPECT_EQ(v.rank, rank);
  EXPECT_TRUE(mentions(v, "chunk offset")) << v.to_string();
}

TEST(TraceAuditTest, DroppedGatherReceiveIsReported) {
  EventTrace trace = recorded_build().trace;
  ASSERT_GE(trace.ranks[0].back().tag, kGatherTagBase);
  trace.ranks[0].pop_back();
  const Violation v = only_violation(audit(trace));
  EXPECT_EQ(v.rank, 0);
  EXPECT_EQ(v.expected, v.actual + 1);
  EXPECT_TRUE(mentions(v, "missing")) << v.to_string();
}

TEST(TraceAuditTest, ExtraEventIsReported) {
  // A message the plan never sent, recorded after everything it did.
  EventTrace trace = recorded_build().trace;
  trace.ranks[2].push_back(TraceEvent{TraceEventKind::kSend, 0, /*tag=*/3, 8});
  const Violation v = only_violation(audit(trace));
  EXPECT_EQ(v.rank, 2);
  EXPECT_EQ(v.expected + 1, v.actual);
  EXPECT_TRUE(mentions(v, "extra")) << v.to_string();
}

TEST(TraceAuditTest, EmptyTraceFailsTheAudit) {
  // Four ranks that recorded nothing: each misses its whole program.
  EventTrace empty;
  empty.ranks.resize(4);
  const AnalysisReport report = audit(empty);
  ASSERT_EQ(report.violations.size(), 4u) << report.to_string();
  for (int r = 0; r < 4; ++r) {
    const Violation& v = report.violations[static_cast<std::size_t>(r)];
    EXPECT_EQ(v.code, ViolationCode::kTraceMismatch);
    EXPECT_EQ(v.rank, r);
    EXPECT_EQ(v.actual, 0);
    EXPECT_GT(v.expected, 0);
    EXPECT_TRUE(mentions(v, "missing")) << v.to_string();
  }
}

TEST(TraceAuditTest, UntracedRunFailsTheAudit) {
  // Two ranks that never communicate record no events, which is no
  // plan's trace.
  const RunReport run = Runtime::run(2, CostModel{}, [](Comm&) {});
  EXPECT_EQ(run.trace.total_events(), 0);
  const Violation v = only_violation(audit(run.trace));
  EXPECT_EQ(v.rank, kNoRank);
}

TEST(TraceAuditTest, WireAboveLogicalSizeIsReported) {
  // A send that put more bytes on the wire than its dense payload breaks
  // the codec's contract, though the record otherwise equals the plan.
  EventTrace trace = recorded_build().trace;
  const std::size_t index = first_of(trace, 1, TraceEventKind::kSend);
  TraceEvent& send = trace.ranks[1][index];
  testing::set_wire(trace, send, send.units + 1);
  const AnalysisReport report = audit(trace);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  const Violation& v = report.violations[0];
  EXPECT_EQ(v.code, ViolationCode::kWireVolumeExceedsBound);
  EXPECT_EQ(v.rank, 1);
  EXPECT_EQ(v.actual, v.expected + 1);
}

TEST(TraceAuditTest, CodecOffWireMustEqualLogicalSize) {
  // With the codec off every payload ships verbatim: the clean record
  // passes, and a send whose wire size differs from its logical size is
  // reported, though a smaller one would pass with the codec on.
  const Recorded recorded =
      record_build(/*message_elements=*/4, /*encode_wire=*/false);
  EXPECT_TRUE(audit_trace(recorded.spec, recorded.plan, recorded.trace).ok());
  EventTrace trace = recorded.trace;
  const std::size_t index = first_of(trace, 1, TraceEventKind::kSend);
  TraceEvent& send = trace.ranks[1][index];
  EXPECT_EQ(send.wire, send.units);
  testing::set_wire(trace, send, send.wire - 1);
  const Violation v =
      only_violation(audit_trace(recorded.spec, recorded.plan, trace));
  EXPECT_EQ(v.rank, 1);
  EXPECT_TRUE(mentions(v, "codec off")) << v.to_string();
}

TEST(TraceAuditTest, ReceiveMustRecordItsSendsLogicalBytes) {
  // A receive records the logical bytes the message carried, as its send
  // did, so it equals the planned receive field for field. One that
  // records 1,000 bytes more departs from the plan.
  for (bool encode_wire : {true, false}) {
    const Recorded recorded = record_build(/*message_elements=*/4, encode_wire);
    EventTrace trace = recorded.trace;
    const std::size_t index = first_of(trace, 0, TraceEventKind::kRecv);
    trace.ranks[0][index].units += 1000;
    const Violation v =
        only_violation(audit_trace(recorded.spec, recorded.plan, trace));
    EXPECT_EQ(v.rank, 0) << "codec " << encode_wire;
    EXPECT_EQ(v.actual, v.expected + 1000) << "codec " << encode_wire;
    EXPECT_TRUE(mentions(v, "logical size")) << v.to_string();
  }
}

TEST(TraceAuditTest, ReceiveMustTakeTheWireBytesItsSendShipped) {
  // A receive records the bytes it took off the wire: the wire bytes of
  // the send it consumed, with the codec on or off. One that took 1,000
  // bytes more departs from the record, though every other field equals
  // the plan.
  for (bool encode_wire : {true, false}) {
    const Recorded recorded = record_build(/*message_elements=*/4, encode_wire);
    EventTrace trace = recorded.trace;
    const std::size_t index = first_of(trace, 0, TraceEventKind::kRecv);
    trace.ranks[0][index].wire += 1000;
    const Violation v =
        only_violation(audit_trace(recorded.spec, recorded.plan, trace));
    EXPECT_EQ(v.rank, 0) << "codec " << encode_wire;
    EXPECT_EQ(v.actual, v.expected + 1000) << "codec " << encode_wire;
    EXPECT_TRUE(mentions(v, "wire size")) << v.to_string();
  }
}

TEST(TraceAuditTest, ReportRendersJson) {
  const std::string clean = audit(recorded_build().trace).to_json();
  EXPECT_NE(clean.find("\"ok\":true"), std::string::npos) << clean;
  EXPECT_NE(clean.find("\"violations\":[]"), std::string::npos) << clean;

  EventTrace trace = recorded_build().trace;
  trace.ranks[0].pop_back();
  const std::string json = audit(trace).to_json();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\":\"trace_mismatch\",\"rank\":0"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace cubist
