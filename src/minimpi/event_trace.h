// EventTrace: the runtime's per-rank communication event record.
//
// When tracing is on, every rank appends its sends, receives, combines
// and barriers to its OWN event vector (no locks: a rank never writes
// another rank's vector, and the trace is only read after all rank
// threads have joined). Messages carry the sender-side event index of
// their send, so a receive records exactly which send it matched — the
// cross-rank edges the happens-before auditor (analysis/hb_auditor.h)
// validates offline.
#pragma once

#include <cstdint>
#include <vector>

namespace cubist {

/// Sentinel for "no associated event index".
inline constexpr std::uint64_t kNoTraceSeq = ~std::uint64_t{0};

enum class TraceEventKind {
  kSend,
  /// Fixed-source receive (Transport::receive), the only receive kind.
  kRecv,
  /// Elementwise fold of a received operand into the local block.
  kCombine,
  /// Global barrier; the g-th barrier of every rank is one round.
  kBarrier,
};

const char* to_string(TraceEventKind kind);

/// One recorded event. `units` is the payload size: logical bytes for
/// sends, wire payload bytes for receives, combined elements for
/// combines, zero for barriers.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSend;
  /// Destination (kSend), source (kRecv), operand source (kCombine), or
  /// -1 (kBarrier).
  int peer = -1;
  std::uint64_t tag = 0;
  std::int64_t units = 0;
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
    case TraceEventKind::kBarrier:
      return "barrier";
  }
  return "unknown";
}

}  // namespace cubist
