// Happens-before auditor: the runtime-side complement of the static
// schedule verifier.
//
// A traced run (Runtime::run with record_trace) yields per-rank event
// vectors whose receives name the exact send they consumed. This pass
// validates that record offline and hard-fails on structural damage: a
// receive whose matched send is missing from the trace (a dropped
// message), consumed twice, addressed elsewhere, or recorded under a
// different tag (a wire-tag collision); a combine whose operand is not a
// preceding same-tag receive; a send no receive consumed; and a trace
// whose happens-before order (program order, message edges, barrier
// rounds) cannot be replayed to its end.
//
// Every runtime receive names its source and each (source, tag) channel
// is FIFO, so which send a receive consumes, and with it the combine
// order, never depends on arrival timing: a valid record has no
// message-level race left to look for.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/schedule_verifier.h"
#include "minimpi/event_trace.h"

namespace cubist {

struct HbAuditReport {
  std::vector<Violation> violations;
  /// Total recorded events across ranks.
  std::int64_t events = 0;
  /// Send->receive edges the happens-before replay followed.
  std::int64_t message_edges = 0;
  /// Global barrier rounds the replay passed.
  std::int64_t barrier_rounds = 0;
  /// Combines whose operand provenance was validated.
  std::int64_t combines_checked = 0;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;
  std::string to_json() const;
};

/// Audits a recorded run. The trace is trusted raw data, never trusted
/// structure: every cross-reference is validated before the
/// happens-before replay follows it, so a tampered or corrupted trace
/// reports kMalformedTrace (or the specific bug it models) instead of
/// crashing.
HbAuditReport audit_event_trace(const EventTrace& trace);

}  // namespace cubist
