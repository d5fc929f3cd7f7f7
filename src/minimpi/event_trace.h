// EventTrace: the runtime's one record of communication, and the replay
// that runs per-rank programs written in it.
//
// Every run records it: each rank appends its sends, receives and
// combines to its OWN event vector (no locks: a rank never writes another
// rank's vector, and the trace is only read after all rank threads have
// joined). Messages carry the sender-side event index of their send, so a
// receive records exactly which send it matched. A send and the receive
// that consumes it record the same two sizes, logical and wire bytes, so
// the run's volume report (volume_of) is the sum of the send events.
//
// The same events are programs too: reduce_program (minimpi/collectives.h)
// writes one member's reduction in them, and the static plan
// (analysis/comm_plan.h) writes every rank's whole run. `replay` runs such
// programs under the transport's rules and links them as the run would,
// so the tuner's simulated clocks, the verifier's transport check and the
// post-run audit (analysis/schedule_verifier.h) share one matcher.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace cubist {

/// Sentinel for "no associated event index".
inline constexpr std::uint64_t kNoTraceSeq = ~std::uint64_t{0};

/// The kinds of communication event, of the recorded trace and of the
/// planned one (CommPlan::events, analysis/comm_plan.h).
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

/// One communication event, recorded by a run or planned. A planned
/// event leaves `wire` and both links at their defaults: `replay` fills
/// in the links as the run does, and only the run knows the wire bytes.
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

/// Communication totals of a trace, broken down by tag — the paper's
/// measured volume (Lemma 1, Theorem 3). The cube builder tags each
/// reduction with the view's dimension mask, so the per-tag maps
/// decompose the volume per lattice node. LOGICAL bytes are the dense
/// payload size (elements * sizeof(Value)), the quantity the closed forms
/// bound; WIRE bytes are what the encoded payload occupied on the link.
/// The codec never ships more than the dense payload, so wire <= logical
/// holds per message (equal with the codec off).
struct VolumeReport {
  /// Logical (dense-equivalent) bytes — the paper's volume measure.
  std::int64_t total_bytes = 0;
  /// Bytes actually shipped after wire encoding (== total_bytes when the
  /// codec is disabled).
  std::int64_t total_wire_bytes = 0;
  std::int64_t total_messages = 0;
  /// Logical bytes per tag (tag = view mask in the cube builder).
  std::map<std::uint64_t, std::int64_t> bytes_by_tag;
  /// Wire bytes per tag.
  std::map<std::uint64_t, std::int64_t> wire_bytes_by_tag;
};

/// The one sum of a trace's send events: the run's volume
/// (RunReport::volume), and over a plan's events its per-view volume and
/// message count (analysis/comm_plan.h).
VolumeReport volume_of(const EventTrace& trace);

/// Runs `programs` (one per rank, peers naming ranks) under the
/// transport's rules (minimpi/transport.h): a send never blocks; a
/// receive takes the head of its (source, destination, tag) channel or
/// stops its rank; a combine is local. Ranks run in turn, each until it
/// stops or ends, while any makes progress. Every receive names its
/// source, so this one interleaving decides every other: each receive
/// matches the same send in all of them, and a rank that stops here stops
/// in all of them.
///
/// Links the programs as the run would: each receive it runs gets the
/// index of the send it took in `match_seq`, each combine the index of
/// its rank's latest receive in `operand_seq`, and every event it does
/// not run carries neither. Calls `visit` (if set) on each event it runs,
/// links filled in, with the event's rank and index. Returns, per rank,
/// the index of the receive it stopped at, or its program's size when it
/// ran to the end.
std::vector<std::size_t> replay(
    EventTrace& programs,
    const std::function<void(int, std::size_t, const TraceEvent&)>& visit =
        {});

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
