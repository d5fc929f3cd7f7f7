// The verifier certifies known-good schedules and pins a diagnostic on
// each class of mutation: dropped receives, dropped sends, wrong lead
// placement, off-by-one volumes, receive cycles, memory-bound and
// scan-scratch breaches, tag collisions, and traffic or results under a
// tag that is no view. Every violation code has its own report name, the
// two seeded mutations are expressible exactly when the schedule has a
// site for them, and `describe` renders every planned event.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

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

bool has_violation(const AnalysisReport& report, ViolationCode code) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [code](const Violation& v) { return v.code == code; });
}

constexpr auto kValueBytes = static_cast<std::int64_t>(sizeof(Value));

/// Index of the first op of `kind` in `ops`, or npos.
std::size_t find_op(const std::vector<TraceEvent>& ops, TraceEventKind kind) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == kind) return i;
  }
  return static_cast<std::size_t>(-1);
}

TEST(ScheduleVerifierTest, CertifiesDefaultFigure5Schedules) {
  for (const ScheduleSpec& spec :
       {spec_of({16, 8, 8}, {1, 1, 0}), spec_of({8, 8, 8}, {1, 1, 1}),
        spec_of({16, 16}, {2, 0}), spec_of({7, 5, 3}, {1, 1, 1}),
        spec_of({16, 8}, {1, 1}, /*cap=*/3), spec_of({4, 4}, {0, 0})}) {
    const AnalysisReport report = verify_schedule(spec);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.planned_total_elements,
              report.predicted_total_elements);
    EXPECT_LE(report.max_peak_live_bytes, report.memory_bound_bytes);
  }
}

TEST(ScheduleVerifierTest, DroppedRecvLeavesUnmatchedSend) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  // Rank 0 is the lead along dimension 0: drop its first receive.
  const std::size_t recv = find_op(plan.events.ranks[0], TraceEventKind::kRecv);
  ASSERT_NE(recv, static_cast<std::size_t>(-1));
  plan.events.ranks[0].erase(plan.events.ranks[0].begin() +
                             static_cast<std::ptrdiff_t>(recv));
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationCode::kUnmatchedSend))
      << report.to_string();
}

TEST(ScheduleVerifierTest, DroppedSendBlocksReceiverForever) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  // Rank 1 ships its partials to rank 0: drop its first send.
  const std::size_t send = find_op(plan.events.ranks[1], TraceEventKind::kSend);
  ASSERT_NE(send, static_cast<std::size_t>(-1));
  plan.events.ranks[1].erase(plan.events.ranks[1].begin() +
                             static_cast<std::ptrdiff_t>(send));
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationCode::kUnmatchedRecv))
      << report.to_string();
}

TEST(ScheduleVerifierTest, WrongLeadPlacementIsFlagged) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  // Move a finalized view from the lead (rank 0) to a rank that does not
  // lead it (rank 1 has coordinate 1 along dimension 0, so it leads no
  // view aggregated along dimension 0).
  const ProcGrid grid(spec.log_splits);
  auto& finals = plan.ranks[0].final_views;
  const auto moved = std::find_if(
      finals.begin(), finals.end(), [&](std::uint32_t mask) {
        return !grid.is_lead_for(1, DimSet::from_mask(mask).complement(2));
      });
  ASSERT_NE(moved, finals.end());
  const std::uint32_t view = *moved;
  finals.erase(moved);
  plan.ranks[1].final_views.push_back(view);
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationCode::kWrongLead))
      << report.to_string();
  // Both sides are reported: the missing lead and the usurping non-lead.
  int wrong_leads = 0;
  for (const Violation& v : report.violations) {
    if (v.code == ViolationCode::kWrongLead) ++wrong_leads;
  }
  EXPECT_EQ(wrong_leads, 2);
}

TEST(ScheduleVerifierTest, OffByOneVolumeTripsLemma1AndTheorem3) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  // Inflate one matched send/recv pair by one element: transport still
  // matches, but the closed-form volume checks must fire.
  const std::size_t send = find_op(plan.events.ranks[1], TraceEventKind::kSend);
  ASSERT_NE(send, static_cast<std::size_t>(-1));
  const std::uint64_t tag = plan.events.ranks[1][send].tag;
  const std::uint32_t view = view_of_tag(tag);
  plan.events.ranks[1][send].units += kValueBytes;
  for (TraceEvent& op : plan.events.ranks[0]) {
    if (op.kind == TraceEventKind::kRecv && op.tag == tag) {
      op.units += kValueBytes;
      break;
    }
  }
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(has_violation(report, ViolationCode::kUnmatchedSend));
  EXPECT_FALSE(has_violation(report, ViolationCode::kUnmatchedRecv));
  EXPECT_TRUE(has_violation(report, ViolationCode::kEdgeVolumeMismatch))
      << report.to_string();
  EXPECT_TRUE(has_violation(report, ViolationCode::kTotalVolumeMismatch));
  // The diagnostic names the mutated view and both volumes.
  for (const Violation& v : report.violations) {
    if (v.code == ViolationCode::kEdgeVolumeMismatch) {
      EXPECT_EQ(v.view_mask, view);
      EXPECT_EQ(v.actual, v.expected + 1);
    }
  }
}

TEST(ScheduleVerifierTest, PayloadSizeDisagreementIsFlagged) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  const std::size_t send = find_op(plan.events.ranks[1], TraceEventKind::kSend);
  ASSERT_NE(send, static_cast<std::size_t>(-1));
  plan.events.ranks[1][send].units += kValueBytes;  // send only; recv unchanged
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_TRUE(has_violation(report, ViolationCode::kMessageSizeMismatch))
      << report.to_string();
}

TEST(ScheduleVerifierTest, ReceiveCycleIsReportedAsDeadlock) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  // Prepend mutually-blocking receives (sends only after): a classic
  // head-of-line cycle between ranks 0 and 1.
  const std::uint64_t view = 0;  // the `all` scalar view tag
  plan.events.ranks[0].insert(plan.events.ranks[0].begin(),
                              {TraceEventKind::kRecv, 1, view, kValueBytes});
  plan.events.ranks[1].insert(plan.events.ranks[1].begin(),
                              {TraceEventKind::kRecv, 0, view, kValueBytes});
  plan.events.ranks[0].push_back({TraceEventKind::kSend, 1, view, kValueBytes});
  plan.events.ranks[1].push_back({TraceEventKind::kSend, 0, view, kValueBytes});
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationCode::kDeadlock))
      << report.to_string();
  for (const Violation& v : report.violations) {
    if (v.code == ViolationCode::kDeadlock) {
      EXPECT_NE(v.message.find("wait-for cycle"), std::string::npos);
    }
  }
}

TEST(ScheduleVerifierTest, ReceiveFromAnAbsentRankBlocksForever) {
  // A receive naming a rank the grid lacks never matches: the wait-for
  // walk stops at it, and it is reported as blocked, not as a cycle.
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  plan.events.ranks[1].insert(plan.events.ranks[1].begin(),
                              {TraceEventKind::kRecv, 2, 0, kValueBytes});
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_TRUE(has_violation(report, ViolationCode::kUnmatchedRecv))
      << report.to_string();
  EXPECT_FALSE(has_violation(report, ViolationCode::kDeadlock));
}

TEST(ScheduleVerifierTest, MemoryMutationsTripTheorem4Checks) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  {
    CommPlan plan = build_comm_plan(spec);
    // Drop a release: the rank ends with a live block.
    auto& memory = plan.ranks[0].memory;
    const auto release = std::find_if(
        memory.begin(), memory.end(), [](const PlannedMemoryEvent& e) {
          return e.kind == PlannedMemoryEvent::Kind::kRelease;
        });
    ASSERT_NE(release, memory.end());
    memory.erase(release);
    const AnalysisReport report = verify_schedule(spec, plan);
    EXPECT_TRUE(has_violation(report, ViolationCode::kMemoryLeak))
        << report.to_string();
  }
  {
    CommPlan plan = build_comm_plan(spec);
    // Balloon an allocation far past the Theorem 4 bound (paired with its
    // release so the leak check stays quiet).
    auto& memory = plan.ranks[0].memory;
    ASSERT_FALSE(memory.empty());
    const std::uint32_t view = memory.front().view;
    const std::int64_t bloat = 1 << 30;
    for (PlannedMemoryEvent& event : memory) {
      if (event.view == view) event.bytes += bloat;
    }
    const AnalysisReport report = verify_schedule(spec, plan);
    EXPECT_TRUE(has_violation(report, ViolationCode::kMemoryBoundExceeded))
        << report.to_string();
    EXPECT_FALSE(has_violation(report, ViolationCode::kMemoryLeak));
  }
}

TEST(ScheduleVerifierTest, ScanScratchAboveTheBudgetIsFlagged) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  plan.ranks[1].max_scan_scratch_bytes = kScanScratchBudgetBytes + 1;
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_EQ(report.max_scan_scratch_bytes, kScanScratchBudgetBytes + 1);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  const Violation& v = report.violations[0];
  EXPECT_EQ(v.code, ViolationCode::kMemoryBoundExceeded);
  EXPECT_EQ(v.rank, 1);
  EXPECT_EQ(v.expected, kScanScratchBudgetBytes);
  EXPECT_EQ(v.actual, kScanScratchBudgetBytes + 1);
  EXPECT_NE(v.message.find("scan-scratch"), std::string::npos);
}

TEST(ScheduleVerifierTest, TagCollisionMutationIsATagCollision) {
  // Two chunk receives of one view from one source, swapped: the FIFO
  // channel hands each the other chunk's message under the shared wire
  // tag. Sends, volumes, memory and leads are untouched, so the stream
  // check is the only thing that can see it.
  const ScheduleSpec spec = spec_of({4, 4, 4}, {2, 0, 0}, /*cap=*/4);
  CommPlan plan = build_comm_plan(spec);
  ASSERT_NE(apply_schedule_mutation(plan, ScheduleMutation::kTagCollision),
            "");
  const AnalysisReport report = verify_schedule(spec, plan);
  ASSERT_EQ(report.violations.size(), 2u) << report.to_string();
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.code, ViolationCode::kTagCollision) << v.to_string();
    EXPECT_EQ(v.rank, 0);
  }
}

TEST(ScheduleVerifierTest, NonViewTagsInThePlanAreFlagged) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  CommPlan plan = build_comm_plan(spec);
  // Retag rank 1's first send and the receive (and combine) that take it
  // to the root's mask, which is no proper view. Both sides agree, so the
  // transport still matches; only the volume check can see the tag.
  const std::uint32_t root_mask = DimSet::full(2).mask();
  const std::size_t send = find_op(plan.events.ranks[1], TraceEventKind::kSend);
  ASSERT_NE(send, static_cast<std::size_t>(-1));
  TraceEvent& sent = plan.events.ranks[1][send];
  ASSERT_EQ(sent.peer, 0);
  const std::uint64_t tag = sent.tag;
  for (TraceEvent& op : plan.events.ranks[0]) {
    if (op.kind != TraceEventKind::kSend && op.peer == 1 && op.tag == tag &&
        op.offset == sent.offset) {
      op.tag = root_mask;
    }
  }
  sent.tag = root_mask;
  const AnalysisReport report = verify_schedule(spec, plan);
  EXPECT_FALSE(has_violation(report, ViolationCode::kUnmatchedSend));
  EXPECT_FALSE(has_violation(report, ViolationCode::kUnmatchedRecv));
  EXPECT_TRUE(has_violation(report, ViolationCode::kUnknownViewTag))
      << report.to_string();
  for (const Violation& v : report.violations) {
    if (v.code == ViolationCode::kUnknownViewTag) {
      EXPECT_EQ(v.view_mask, root_mask);
      EXPECT_EQ(v.actual, sent.units / kValueBytes);
    }
  }
  // The view that lost the traffic falls short of Lemma 1.
  EXPECT_TRUE(has_violation(report, ViolationCode::kEdgeVolumeMismatch));

  // A rank that writes back the root's mask as a result is flagged too.
  CommPlan finals = build_comm_plan(spec);
  finals.ranks[0].final_views.push_back(root_mask);
  const AnalysisReport written = verify_schedule(spec, finals);
  ASSERT_EQ(written.violations.size(), 1u) << written.to_string();
  EXPECT_EQ(written.violations[0].code, ViolationCode::kUnknownViewTag);
  EXPECT_EQ(written.violations[0].rank, 0);
}

TEST(ScheduleVerifierTest, EveryViolationCodeHasADistinctName) {
  // kTraceMismatch is the last code: the value past it has no name.
  const int codes = static_cast<int>(ViolationCode::kTraceMismatch) + 1;
  EXPECT_STREQ(to_string(static_cast<ViolationCode>(codes)), "unknown");
  std::set<std::string> names;
  for (int i = 0; i < codes; ++i) {
    const auto code = static_cast<ViolationCode>(i);
    const std::string name = to_string(code);
    EXPECT_NE(name, "unknown") << "code " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    AnalysisReport report;
    Violation violation;
    violation.code = code;
    report.violations.push_back(violation);
    EXPECT_NE(report.to_json().find("\"code\":\"" + name + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(names.size(), 13u);
}

/// The trace a run of `plan` records with the codec off: the planned
/// events, linked as the run links them, every message's wire size equal
/// to its logical size.
EventTrace trace_of(const CommPlan& plan) {
  EventTrace trace = plan.events;
  replay(trace);
  for (std::vector<TraceEvent>& events : trace.ranks) {
    for (TraceEvent& e : events) {
      if (e.kind != TraceEventKind::kCombine) e.wire = e.units;
    }
  }
  return trace;
}

/// The first send event of `trace`, lowest rank first.
TraceEvent& first_send(EventTrace& trace) {
  for (std::vector<TraceEvent>& events : trace.ranks) {
    for (TraceEvent& e : events) {
      if (e.kind == TraceEventKind::kSend) return e;
    }
  }
  ADD_FAILURE() << "the trace holds no send";
  return trace.ranks.front().front();
}

TEST(ScheduleVerifierTest, AuditAcceptsExactLedgerAndCatchesOverCount) {
  // The trace is the run's one volume record: the exact trace passes, and
  // one cell over-counted on a send is a departure from the plan.
  const ScheduleSpec spec = spec_of({16, 8, 8}, {1, 1, 0});
  const CommPlan plan = build_comm_plan(spec);
  EventTrace trace = trace_of(plan);
  EXPECT_TRUE(audit_trace(spec, plan, trace).ok());

  TraceEvent& send = first_send(trace);
  send.units += sizeof(Value);
  send.wire += sizeof(Value);
  const AnalysisReport report = audit_trace(spec, plan, trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationCode::kTraceMismatch))
      << report.to_string();
}

TEST(ScheduleVerifierTest, AuditFlagsUnknownTags) {
  // Traffic under a tag that is no view departs from every plan.
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  const CommPlan plan = build_comm_plan(spec);
  EventTrace trace = trace_of(plan);
  first_send(trace).tag = 0xdeadbeefu;
  const AnalysisReport report = audit_trace(spec, plan, trace);
  EXPECT_TRUE(has_violation(report, ViolationCode::kTraceMismatch))
      << report.to_string();
}

TEST(ScheduleVerifierTest, WireAuditCertifiesAtAndBelowTheDenseBound) {
  ScheduleSpec spec = spec_of({16, 8, 8}, {1, 1, 0});
  const CommPlan plan = build_comm_plan(spec);
  EventTrace trace = trace_of(plan);
  // At the bound (wire == logical on every send): fine with the codec on
  // or off.
  for (bool codec : {true, false}) {
    spec.reduce.encode_wire = codec;
    EXPECT_TRUE(audit_trace(spec, plan, trace).ok()) << "codec " << codec;
  }

  // Below the bound: what the adaptive codec produces. OK only with the
  // codec on; off, a send ships its payload verbatim.
  TraceEvent& send = first_send(trace);
  testing::set_wire(trace, send, send.wire / 2);
  spec.reduce.encode_wire = true;
  EXPECT_TRUE(audit_trace(spec, plan, trace).ok());
  spec.reduce.encode_wire = false;
  const AnalysisReport strict = audit_trace(spec, plan, trace);
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(has_violation(strict, ViolationCode::kTraceMismatch))
      << strict.to_string();
}

TEST(ScheduleVerifierTest, WireAuditFlagsBytesAboveTheDenseBound) {
  const ScheduleSpec spec = spec_of({16, 8, 8}, {1, 1, 0});
  const CommPlan plan = build_comm_plan(spec);
  EventTrace trace = trace_of(plan);
  TraceEvent& send = first_send(trace);
  testing::set_wire(trace, send, send.wire + 1);  // one byte over its size
  const AnalysisReport report = audit_trace(spec, plan, trace);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].code, ViolationCode::kWireVolumeExceedsBound)
      << report.to_string();
  EXPECT_EQ(report.violations[0].actual, report.violations[0].expected + 1);
}

TEST(ScheduleVerifierTest, DenseBoundsAreReportedAndSerialized) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 0});
  const AnalysisReport verified = verify_schedule(spec);
  ASSERT_FALSE(verified.dense_bound_bytes_by_view.empty());
  for (const auto& [mask, bytes] : verified.dense_bound_bytes_by_view) {
    EXPECT_GT(bytes, 0) << "view mask " << mask;
  }
  EXPECT_NE(verified.to_json().find("dense_bound_bytes_by_view"),
            std::string::npos);
}

TEST(ScheduleVerifierTest, ReportRendersHumanAndJson) {
  const ScheduleSpec spec = spec_of({16, 8}, {1, 1});
  const AnalysisReport report = verify_schedule(spec);
  EXPECT_NE(report.to_string().find("schedule OK"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"ok\":true"), std::string::npos);

  CommPlan plan = build_comm_plan(spec);
  const std::size_t recv = find_op(plan.events.ranks[0], TraceEventKind::kRecv);
  ASSERT_NE(recv, static_cast<std::size_t>(-1));
  plan.events.ranks[0].erase(plan.events.ranks[0].begin() +
                             static_cast<std::ptrdiff_t>(recv));
  const AnalysisReport broken = verify_schedule(spec, plan);
  EXPECT_NE(broken.to_string().find("schedule INVALID"), std::string::npos);
  EXPECT_NE(broken.to_json().find("\"ok\":false"), std::string::npos);
  EXPECT_NE(broken.to_json().find("unmatched_send"), std::string::npos);
}

TEST(ScheduleVerifierTest, JsonEscapesViolationMessages) {
  AnalysisReport report;
  Violation violation;
  violation.message = "quote \" backslash \\ newline \n control \x01 end";
  report.violations.push_back(violation);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n control "
                      "\\u0001 end"),
            std::string::npos)
      << json;
  // No raw control byte survives into the JSON text.
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0);
}

TEST(ScheduleVerifierTest, GatheredSchedulesAreCertifiedWhole) {
  // With the result collected, the plan holds the gather too: the replay
  // proves it matched and deadlock-free, while Lemma 1 and Theorem 3 still
  // count construction traffic only.
  for (ScheduleSpec spec :
       {spec_of({16, 8, 8}, {1, 1, 0}), spec_of({7, 5, 3}, {1, 1, 1}),
        spec_of({16, 8}, {1, 1}, /*cap=*/3), spec_of({4, 4}, {0, 0})}) {
    const CommPlan construction = build_comm_plan(spec);
    spec.collect_result = true;
    const CommPlan whole = build_comm_plan(spec);
    const AnalysisReport report = verify_schedule(spec, whole);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.planned_total_elements,
              report.predicted_total_elements);
    EXPECT_EQ(elements_by_view(whole), elements_by_view(construction));
    // One gather message per (view, lead other than rank 0).
    const ProcGrid grid(spec.log_splits);
    const int n = grid.ndims();
    std::int64_t remote_blocks = 0;
    for (std::uint32_t mask = 0; mask + 1 < (1u << n); ++mask) {
      for (int r = 1; r < grid.size(); ++r) {
        if (grid.is_lead_for(r, DimSet::from_mask(mask).complement(n))) {
          ++remote_blocks;
        }
      }
    }
    EXPECT_EQ(whole.total_messages(),
              construction.total_messages() + remote_blocks);
  }
}

TEST(ScheduleVerifierTest, DroppedGatherSendBlocksRankZero) {
  ScheduleSpec spec = spec_of({16, 8, 8}, {1, 1, 0});
  spec.collect_result = true;
  CommPlan plan = build_comm_plan(spec);
  // Rank 3 leads the view that aggregates only the unsplit dimension 2:
  // drop the send that ships it to rank 0.
  std::vector<TraceEvent>& ops = plan.events.ranks[3];
  const auto gather = std::find_if(
      ops.begin(), ops.end(),
      [](const TraceEvent& op) { return op.tag >= kGatherTagBase; });
  ASSERT_NE(gather, ops.end());
  EXPECT_EQ(gather->peer, 0);
  EXPECT_EQ(view_of_tag(gather->tag), DimSet::of({0, 1}).mask());
  ops.erase(gather);
  const AnalysisReport report = verify_schedule(spec, plan);
  const auto blocked = std::find_if(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) {
        return v.code == ViolationCode::kUnmatchedRecv;
      });
  ASSERT_NE(blocked, report.violations.end()) << report.to_string();
  EXPECT_EQ(blocked->rank, 0);
  // The construction volumes are untouched.
  EXPECT_FALSE(has_violation(report, ViolationCode::kEdgeVolumeMismatch));
}

TEST(ScheduleVerifierTest, DropSendRemovesExactlyOneSend) {
  CommPlan plan = build_comm_plan(spec_of({4, 4, 4}, {2, 0, 0}));
  const std::int64_t sends = count_kind(plan.events, TraceEventKind::kSend);
  const std::string note =
      apply_schedule_mutation(plan, ScheduleMutation::kDropSend);
  EXPECT_FALSE(note.empty());
  EXPECT_EQ(count_kind(plan.events, TraceEventKind::kSend), sends - 1);
}

TEST(ScheduleVerifierTest, TagCollisionMutationSwapsTwoChunkReceives) {
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
        clean.events.ranks[static_cast<std::size_t>(r)];
    const std::vector<TraceEvent>& after =
        plan.events.ranks[static_cast<std::size_t>(r)];
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
  EXPECT_EQ(count_kind(plan.events, TraceEventKind::kRecv),
            count_kind(clean.events, TraceEventKind::kRecv));
}

TEST(ScheduleVerifierTest, MutationsInexpressibleWithoutCommunication) {
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

TEST(ScheduleVerifierTest, DescribeRendersEvents) {
  ScheduleSpec spec = spec_of({4, 4, 4}, {1, 1, 0});
  spec.collect_result = true;
  for (const std::vector<TraceEvent>& events :
       build_comm_plan(spec).events.ranks) {
    for (const TraceEvent& event : events) {
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

TEST(ScheduleVerifierTest, RejectsPlanGridMismatch) {
  const CommPlan plan = build_comm_plan(spec_of({16, 8}, {1, 0}));
  EXPECT_THROW(verify_schedule(spec_of({16, 8}, {1, 1}), plan),
               InvalidArgument);
}

}  // namespace
}  // namespace cubist
