// Schedule IR: a shape-agnostic event language for collective schedules.
//
// Any collective (the binomial tree, pipelined ring and two-level
// schedules of Comm::reduce) is expressed as per-rank programs of typed
// events — kSend / kRecv / kCombine — each carrying the logical view
// stream, the chunk offset within the view block, the payload size and
// the wire tag. Every receive names its source, as every runtime receive
// does. The planner (comm_plan.cpp) emits this IR and the schedule
// verifier certifies Lemma-1/Theorem-3/4 invariants over it, so
// consumers never hard-code a topology.
//
// `apply_schedule_mutation` seeds two classic distributed-reduction bugs
// (dropped send, tag collision) into a well-formed IR. It exists only so
// tests and `cubist-analyze --self-test` can prove the verifier catches
// them; production code never mutates an IR.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cubist {

/// Sentinel for `CommEvent::tag`: the wire tag equals the view mask
/// (the planner's default; a distinct tag only appears in hand-mutated
/// IRs).
inline constexpr std::uint64_t kTagFromView = ~std::uint64_t{0};

/// One typed schedule event of a rank, in program order.
///
/// Field-order note: (kind, peer, view, elements) leads so the aggregate
/// initializers used throughout the verifier tests keep working; `offset`
/// and `tag` default to "whole block" / "tag = view".
struct CommEvent {
  enum class Kind {
    /// Ship `elements` cells of `view` at `offset` to rank `peer`.
    kSend,
    /// Consume the next message of the (`peer`, wire tag) channel.
    kRecv,
    /// Fold the operand delivered by the immediately preceding receive
    /// of this rank into the local block at `offset` (local compute).
    kCombine,
  };

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
  /// Wire tag the receive matches on; kTagFromView means `view`.
  std::uint64_t tag = kTagFromView;

  std::uint64_t wire_tag() const { return tag == kTagFromView ? view : tag; }

  bool operator==(const CommEvent&) const = default;
};

const char* to_string(CommEvent::Kind kind);

/// One rank's complete event program, in program order.
struct RankProgram {
  std::vector<CommEvent> events;
};

/// The whole schedule as per-rank event programs.
struct ScheduleIR {
  int num_ranks = 0;
  std::vector<RankProgram> ranks;

  std::int64_t total_events() const;
  /// Human-readable one-line rendering of one event ("r2[5] send->r0 ...").
  std::string describe(int rank, std::size_t index) const;
};

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

/// Applies `mutation` to `ir` in place and returns a one-line description
/// of the seeded bug, or an empty string if the IR has no site where the
/// mutation is expressible (e.g. a single-rank schedule). Test-only.
std::string apply_schedule_mutation(ScheduleIR& ir, ScheduleMutation mutation);

}  // namespace cubist
