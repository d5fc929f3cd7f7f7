// Schedule verifier: proves the paper's guarantees about a planned
// parallel construction *before* executing it, and audits the run
// against the plan afterwards.
//
// Checked invariants (see docs/ANALYSIS.md):
//   * Transport safety — every planned send, the result gather's
//     included, is consumed by exactly one matching receive of its own
//     stream, payload sizes agree, and the schedule is deadlock-free.
//     Sends in minimpi never block and every receive names its source,
//     so the only hazard is a receive cycle, and every interleaving
//     matches the same send to every receive (Kahn's determinacy): one
//     replay of the per-rank programs decides them all — `replay`
//     (minimpi/event_trace.h), the one the tuner and the audit run. The
//     verifier reads the matches and the stop points it leaves, and on a
//     stall extracts the wait-for-graph cycle for the diagnostic.
//   * Communication volume — per-edge planned construction volume equals
//     Lemma 1's closed form (2^{k_m} - 1) * prod_{j notin Y} D_j, and the
//     total equals Theorem 3's sum. Exact, not approximate: uneven
//     balanced splits cancel when summing over reduction groups.
//   * Memory — replaying each rank's view-block lifetimes never exceeds
//     Theorem 4's per-processor bound sum_i prod_{j != i} ceil(D_j /
//     2^{k_j}) and leaks nothing.
//   * Placement — every non-root view is finalized on exactly the lead
//     processors of its aggregated dimension set.
//
// All results are collected in a machine-readable AnalysisReport; the
// parallel driver turns a non-empty report into a hard InternalError.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/comm_plan.h"
#include "minimpi/event_trace.h"

namespace cubist {

enum class ViolationCode {
  /// A planned send whose payload no receive ever consumes.
  kUnmatchedSend,
  /// A planned receive for which no matching send exists.
  kUnmatchedRecv,
  /// A wait-for cycle among blocked receivers.
  kDeadlock,
  /// Matched (source, tag) stream but the payload size disagrees.
  kMessageSizeMismatch,
  /// Planned per-edge volume differs from Lemma 1's closed form.
  kEdgeVolumeMismatch,
  /// Planned total volume differs from Theorem 3's closed form.
  kTotalVolumeMismatch,
  /// A rank's peak live view-block bytes exceed the Theorem 4 bound.
  kMemoryBoundExceeded,
  /// A rank ends the schedule with live view blocks.
  kMemoryLeak,
  /// A view finalized on a non-lead rank, or never finalized on a lead.
  kWrongLead,
  /// A recorded send put more bytes on the wire than its logical size
  /// (the adaptive codec guarantees wire <= logical per message, so this
  /// can only fire on an accounting or codec bug).
  kWireVolumeExceedsBound,
  /// Traffic planned, or a view finalized, under a tag that is no
  /// lattice view.
  kUnknownViewTag,
  /// A receive matched another chunk's message (another chunk offset):
  /// two chunks share one tag and the receive consumed the other's.
  kTagCollision,
  /// A recorded event trace departs from the certified plan: an event
  /// differs in kind, peer, tag, chunk offset or logical size, a receive
  /// consumed another send than planned or took other wire bytes than
  /// that send shipped, a combine folds another operand, events are
  /// missing or extra, or — with the codec off — a send's wire size
  /// differs from its logical size.
  kTraceMismatch,
};

const char* to_string(ViolationCode code);

/// Escapes `text` for embedding in a JSON string literal (shared by the
/// analysis reports' to_json renderings).
std::string json_escape(const std::string& text);

/// Sentinel for violations not tied to a view or rank.
inline constexpr std::uint32_t kNoView = 0xffffffffu;
inline constexpr int kNoRank = -1;

/// One diagnostic: what invariant broke, where, and by how much.
struct Violation {
  ViolationCode code = ViolationCode::kUnmatchedSend;
  int rank = kNoRank;
  std::uint32_t view_mask = kNoView;
  std::int64_t expected = 0;
  std::int64_t actual = 0;
  std::string message;

  std::string to_string() const;
};

/// Machine-readable verification/audit result.
struct AnalysisReport {
  std::vector<Violation> violations;

  // Summary of what was certified (filled in even when violations exist).
  std::int64_t planned_total_elements = 0;
  /// Theorem 3's closed-form total.
  std::int64_t predicted_total_elements = 0;
  std::int64_t planned_messages = 0;
  /// Max over ranks of simulated peak live view-block bytes.
  std::int64_t max_peak_live_bytes = 0;
  /// Theorem 4's per-processor bound in bytes.
  std::int64_t memory_bound_bytes = 0;
  /// Max over ranks of the planned transient scan-scratch ceiling
  /// (scan_scratch_bound of each rank's largest scan). Lives only during
  /// a scan, so it is reported next to — not inside — the Theorem 4
  /// bound, and is itself capped by kScanScratchBudgetBytes.
  std::int64_t max_scan_scratch_bytes = 0;
  /// The dense Lemma-1 volume bound per reduction edge, in bytes — what a
  /// view's measured wire bytes stay at or under (views with a zero bound
  /// are omitted). Filled by verify_schedule.
  std::map<std::uint32_t, std::int64_t> dense_bound_bytes_by_view;

  bool ok() const { return violations.empty(); }
  /// Human-readable multi-line rendering (one violation per line).
  std::string to_string() const;
  /// JSON rendering for tooling.
  std::string to_json() const;
};

/// Verifies `plan` against the paper's invariants for `spec`. The plan is
/// a parameter (rather than always derived) so tests can mutate a good
/// plan and check the diagnostics.
AnalysisReport verify_schedule(const ScheduleSpec& spec, const CommPlan& plan);

/// Builds the plan for `spec` and verifies it.
AnalysisReport verify_schedule(const ScheduleSpec& spec);

/// Post-run audit: the recorded trace must equal `plan` (built for
/// `spec`) event for event on every rank. The recorded events are
/// compared with the plan's, linked by `replay` as the run links them,
/// field for field — kind, peer, tag, chunk offset, the send each receive
/// consumed, each combine's operand and logical size — and the wire
/// sizes, which only the run can fill in, are checked against the trace
/// itself: a receive's must be those of the send it consumed, and every
/// send's must stay at or below its logical size (exactly on it with
/// `spec.reduce.encode_wire` off). With `plan` certified, that is the
/// whole runtime check (docs/ANALYSIS.md, "Trace equals plan"): the
/// measured per-view volume is the plan's, hence Lemma 1's, and the
/// per-view wire bytes stay at or under the dense bound. Reports each
/// rank's first departure: a send over its logical size as
/// kWireVolumeExceedsBound, anything else as kTraceMismatch.
AnalysisReport audit_trace(const ScheduleSpec& spec, const CommPlan& plan,
                           const EventTrace& trace);

/// One-line rendering of a planned or recorded event, as the verifier's
/// diagnostics quote it ("send tag 5 (view {0,2}) @8 x64 -> r0 wire 40").
std::string describe(const TraceEvent& event);

/// The seeded bugs of the mutation-detection suite.
enum class ScheduleMutation {
  kNone,
  /// Delete one send whose receiver then blocks forever: the classic
  /// dropped-message deadlock.
  kDropSend,
  /// Swap two chunk receives one rank takes from one source for one view
  /// (with the combines that fold them). The channel is still FIFO, so
  /// the first receive consumes the other chunk's message under the
  /// shared tag and folds it at the wrong offset.
  kTagCollision,
};

const char* to_string(ScheduleMutation mutation);

/// Applies `mutation` to `plan`'s events in place and returns a one-line
/// description of the seeded bug, or an empty string if the plan has no
/// site where the mutation is expressible (e.g. a single-rank schedule).
/// It exists only so tests and `cubist-analyze --self-test` can prove the
/// verifier catches the bug; production code never mutates a plan.
std::string apply_schedule_mutation(CommPlan& plan, ScheduleMutation mutation);

}  // namespace cubist
