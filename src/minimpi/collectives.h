// Collective registry + tuner for Comm::reduce.
//
// Two reduction schedules over the same volume contract, and a cost
// tuner that picks between them per call:
//
//   kBinomial  the original chunk-pipelined binomial tree toward
//              group[0]. Latency-optimal (ceil(log2 g) rounds on the
//              critical path); the root folds ceil(log2 g) operands
//              serially.
//   kRing      a chunk-pipelined chain toward group[0] (member i
//              receives from i+1, folds, forwards to i-1). Bandwidth-
//              optimal at the root for large dense blocks: every member
//              folds exactly one operand per chunk and the folds
//              pipeline down the chain, at the price of g-1 hops of fill
//              latency. (A ring reduce-scatter + allgather was rejected:
//              it ships 2(g-1)/g of the block per member, which would
//              break the Lemma-1 *equality* the verifier certifies.)
//
// Both send exactly (group-1) * block elements per reduction — the
// Lemma-1 dense volume — so the static verifier's per-view EQUALITY
// check holds for whichever schedule the tuner picks. All receives are
// fixed-source, so combine order is deterministic by construction and
// the schedule verifier's one replay certifies tuned schedules exactly
// as it certifies binomial.
//
// `reduce_program` is the single source of truth for what one reduction
// does, and CostModel's charge_* functions for what it costs. The program
// is written in the run's own TraceEvents, and has three callers:
// Comm::reduce executes it, analysis/comm_plan.cpp appends it to the plan
// as it is, and simulate_reduce_seconds runs it through `replay`
// (minimpi/event_trace.h), the verifier's replay, charging the runtime's
// own functions. Plan, runtime and tuner therefore agree by construction,
// not by parallel maintenance.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "minimpi/cost_model.h"
#include "minimpi/event_trace.h"

namespace cubist {

enum class ReduceAlgorithm {
  /// Tuner picks per call from the forced algorithms below.
  kAuto,
  kBinomial,
  kRing,
};

const char* to_string(ReduceAlgorithm algorithm);
/// Parses "auto" / "binomial" / "ring".
/// Returns false (and leaves `out` alone) on anything else.
bool parse_reduce_algorithm(std::string_view name, ReduceAlgorithm* out);

/// The settings of one reduction: with the group, the block size and the
/// cost model, they decide its schedule (see docs/PERFORMANCE.md,
/// "Communication engine" and "Collective selection"). The
/// one record of them: ParallelOptions and ScheduleSpec each hold one,
/// and Comm::reduce and the tuner below take it.
struct ReduceOptions {
  /// Reduction schedule. kBinomial is the default for direct Comm::reduce
  /// callers (ParallelOptions defaults to kAuto); kAuto asks the cost
  /// tuner to pick per call from (block size, group, message cap, wire
  /// switch), pricing every payload dense. The choice never
  /// changes the result bits or the shipped volume, only the schedule.
  ReduceAlgorithm algorithm = ReduceAlgorithm::kBinomial;
  /// Cap on elements per message (0 = whole block per message; the ring
  /// auto-chunks then, see reduce_chunk_elements). The communication-
  /// frequency knob studied in the authors' companion work: logical
  /// volume is unchanged, and message count and latency cost grow as the
  /// cap shrinks, while the chunk-pipelined reduce overlaps rounds at
  /// this granularity.
  std::int64_t max_message_elements = 0;
  /// Adaptive payload encoding (array/wire_codec.h): on, every chunk
  /// ships in the smallest of the codec's forms; off, it ships raw Values
  /// and wire bytes equal logical bytes exactly. Lossless either way.
  bool encode_wire = true;
};

/// The tuner's guard against model error: it switches away from binomial
/// only when a challenger's predicted makespan is below this fraction of
/// binomial's.
inline constexpr double kTunerSwitchMargin = 0.95;

/// With no explicit message cap, the ring splits the block into this many
/// pieces per chain hop, i.e. about kRingPipelineFactor * (g-1) chunks, so
/// the chain's fill latency amortizes.
inline constexpr std::int64_t kRingPipelineFactor = 2;

/// Chunk size in elements for a block of `total_elements` reduced over
/// `group_size` members under `options.algorithm` (forced). A non-zero
/// `options.max_message_elements` always wins; with no cap, binomial
/// ships the whole block per message while the ring auto-chunks
/// to ~2(g-1) pieces so the chain actually pipelines (a whole-block chain
/// would serialize g-1 full transfers).
std::int64_t reduce_chunk_elements(const ReduceOptions& options,
                                   std::int64_t total_elements,
                                   int group_size);

/// The whole reduction program of group member `me_index` (an index into
/// `group`) for a block of `total_elements`, as the events its run records
/// under `tag`: chunks of reduce_chunk_elements() in the outer loop, and
/// per chunk the member's receives, each followed by the combine that
/// folds it, then its one send (none at group[0]), so an interior member
/// forwards chunk i before chunk i+1 arrives. Peers are ranks (members of
/// `group`); sends and receives carry logical bytes, combines elements,
/// and the run (or `replay`) fills in the wire bytes and links.
/// `options.algorithm` must be forced. Empty for an empty block or a
/// singleton group.
std::vector<TraceEvent> reduce_program(const ReduceOptions& options,
                                       std::span<const int> group,
                                       int me_index,
                                       std::int64_t total_elements,
                                       std::uint64_t tag);

/// The tuner's estimate of one chunk's payload, priced dense (the
/// partial aggregates a reduce ships are): the wire bytes a send of
/// `elements` puts on the link — half the raw Values with the codec on
/// (its narrow-integer form), all of them off — and one combine update
/// per element at its receiver. simulate_reduce_seconds prices every send
/// and combine of its replay on it; Comm::reduce prices every send and
/// combine it executes on it beside the payload it actually shipped or
/// folded, which is what the reduce drift gauge compares (obs/drift.h).
struct ReducePayloadEstimate {
  double wire_bytes = 0.0;
  double updates = 0.0;
};
ReducePayloadEstimate estimate_reduce_payload(std::int64_t elements,
                                              bool encode_wire);

/// Predicted makespan of one reduction under `options.algorithm` (must
/// be forced): every member's reduce_program run through `replay`, each
/// event charged by the CostModel function the runtime's virtual clock
/// calls for it, on estimate_reduce_payload's payloads.
double simulate_reduce_seconds(const ReduceOptions& options,
                               std::span<const int> group,
                               std::int64_t total_elements,
                               const CostModel& model);

/// The tuner: cheapest predicted algorithm for this call under
/// `options`' message cap and wire switch (its `algorithm` is not read).
/// Binomial is the incumbent and the ring, for groups of 3 or more, its
/// one challenger: the ring is picked only when its predicted makespan
/// beats binomial's by kTunerSwitchMargin, so `kAuto` never does worse
/// than forced binomial by more than model error. A pair has no
/// challenger, so nothing is simulated for it.
ReduceAlgorithm choose_reduce_algorithm(const ReduceOptions& options,
                                        std::span<const int> group,
                                        std::int64_t total_elements,
                                        const CostModel& model);

/// `options.algorithm` itself when forced; the tuner's choice for kAuto.
/// Both the runtime reduce and the static planner resolve through this
/// exact function (on the same static inputs), which is what keeps the
/// plan and the execution in lockstep.
ReduceAlgorithm resolve_reduce_algorithm(const ReduceOptions& options,
                                         std::span<const int> group,
                                         std::int64_t total_elements,
                                         const CostModel& model);

}  // namespace cubist
