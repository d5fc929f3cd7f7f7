// EventTrace: the runtime's one record of communication.
//
// Every run records it: each rank appends its sends, receives and
// combines to its OWN event vector (no locks: a rank never writes another
// rank's vector, and the trace is only read after all rank threads have
// joined). Messages carry the sender-side event index of their send, so a
// receive records exactly which send it matched. A send and the receive
// that consumes it record the same two sizes, logical and wire bytes, so
// the run's volume report (RunReport::volume) is derived from the send
// events after the join. The static plan (analysis/comm_plan.h) is written
// in these events too, so the driver's post-run audit
// (analysis/schedule_verifier.h, audit_trace) compares the record with the
// certified plan field for field.
#pragma once

#include <cstdint>
#include <vector>

namespace cubist {

/// Sentinel for "no associated event index".
inline constexpr std::uint64_t kNoTraceSeq = ~std::uint64_t{0};

/// The kinds of communication event, of the recorded trace and of the
/// planned one (RankPlan::ops, analysis/comm_plan.h).
enum class TraceEventKind {
  /// Ship a payload to `peer`. Never blocks.
  kSend,
  /// Consume the next message of the (`peer`, tag) channel. Every
  /// receive names its source (Transport::receive).
  kRecv,
  /// Fold the operand delivered by the immediately preceding receive of
  /// this rank into the local block (local compute).
  kCombine,
};

const char* to_string(TraceEventKind kind);

/// One communication event, recorded by a run or planned by
/// build_comm_plan. A planned event leaves `wire` and both links at their
/// defaults: the run fills them in.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSend;
  /// Destination (kSend), source (kRecv) or operand source (kCombine).
  int peer = -1;
  /// Channel tag: the target view's mask for construction traffic, and
  /// kGatherTagBase | mask for the result gather (analysis/comm_plan.h).
  std::uint64_t tag = 0;
  /// Payload size: logical (dense) bytes for a send and for the receive
  /// that consumes it, combined elements for a combine.
  std::int64_t units = 0;
  /// Chunk offset, in elements, within the view block: the sent chunk's
  /// (kSend), the consumed message's (kRecv) or the folded one's
  /// (kCombine). Zero for whole-block messages.
  std::int64_t offset = 0;
  /// kSend and kRecv: the bytes the payload occupied on the link after
  /// wire encoding — never above `units`, equal to it with the codec off,
  /// and the same on a send and the receive that consumed it.
  std::int64_t wire = 0;
  /// kRecv: event index, WITHIN THE SENDER's trace, of the send whose
  /// message this receive consumed.
  std::uint64_t match_seq = kNoTraceSeq;
  /// kCombine: event index, within THIS rank's trace, of the receive that
  /// delivered the operand.
  std::uint64_t operand_seq = kNoTraceSeq;

  bool operator==(const TraceEvent&) const = default;
};

/// The whole run's trace, indexed by rank.
struct EventTrace {
  std::vector<std::vector<TraceEvent>> ranks;

  std::int64_t total_events() const {
    std::int64_t total = 0;
    for (const auto& events : ranks) {
      total += static_cast<std::int64_t>(events.size());
    }
    return total;
  }
};

inline const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSend:
      return "send";
    case TraceEventKind::kRecv:
      return "recv";
    case TraceEventKind::kCombine:
      return "combine";
  }
  return "unknown";
}

}  // namespace cubist
