// Schedule IR: a shape-agnostic event language for collective schedules.
//
// Any collective (the binomial tree, pipelined ring and two-level
// schedules of Comm::reduce) and the result gather are expressed as
// per-rank programs of typed events — kSend / kRecv / kCombine, the kinds
// the runtime's EventTrace records — each carrying the logical view
// stream, the chunk offset within the view block, the payload size and
// the wire tag. Every receive names its source, as every runtime receive
// does. The planner (comm_plan.cpp) emits this IR as each rank's
// `RankPlan::ops`, and the schedule verifier certifies the Lemma 1 and
// Theorem 3/4 invariants over it, so consumers never hard-code a
// topology.
//
// `apply_schedule_mutation` seeds two classic distributed-reduction bugs
// (dropped send, tag collision) into a well-formed plan. It exists only
// so tests and `cubist-analyze --self-test` can prove the verifier
// catches them; production code never mutates a plan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minimpi/event_trace.h"

namespace cubist {

struct CommPlan;

/// Sentinel for `CommEvent::tag`: the wire tag equals the view mask
/// (every construction event; the result gather sets its own tag).
inline constexpr std::uint64_t kTagFromView = ~std::uint64_t{0};

/// One typed schedule event of a rank, in program order: ship `elements`
/// cells of `view` at `offset` to `peer`, consume the next message of the
/// (`peer`, wire tag) channel, or fold the preceding receive's operand
/// into the local block at `offset`.
///
/// Field-order note: (kind, peer, view, elements) leads so the aggregate
/// initializers used throughout the verifier tests keep working; `offset`
/// and `tag` default to "whole block" / "tag = view".
struct CommEvent {
  /// The recorded trace's kinds, so a planned event and a recorded one
  /// compare directly.
  using Kind = TraceEventKind;

  Kind kind = Kind::kSend;
  /// Destination rank (kSend) or source rank (kRecv, kCombine operand
  /// origin).
  int peer = -1;
  /// Logical stream: the target view's dimension mask.
  std::uint32_t view = 0;
  /// Payload size in array elements.
  std::int64_t elements = 0;
  /// Chunk offset (in elements) within the view block.
  std::int64_t offset = 0;
  /// Wire tag the receive matches on; kTagFromView means `view`. The
  /// result gather sends under kGatherTagBase | view (comm_plan.h).
  std::uint64_t tag = kTagFromView;

  std::uint64_t wire_tag() const { return tag == kTagFromView ? view : tag; }

  bool operator==(const CommEvent&) const = default;
};

/// One-line rendering of an event ("send view {0,1}@8 x4 -> r0").
std::string to_string(const CommEvent& event);

/// The seeded bugs of the mutation-detection suite.
enum class ScheduleMutation {
  kNone,
  /// Delete one send whose receiver then blocks forever: the classic
  /// dropped-message deadlock.
  kDropSend,
  /// Swap two chunk receives one rank takes from one source for one view
  /// (with the combines that fold them). The channel is still FIFO, so
  /// the first receive consumes the other chunk's message under the
  /// shared wire tag and folds it at the wrong offset.
  kTagCollision,
};

const char* to_string(ScheduleMutation mutation);

/// Applies `mutation` to `plan`'s ops in place and returns a one-line
/// description of the seeded bug, or an empty string if the plan has no
/// site where the mutation is expressible (e.g. a single-rank schedule).
/// Test-only.
std::string apply_schedule_mutation(CommPlan& plan, ScheduleMutation mutation);

}  // namespace cubist
