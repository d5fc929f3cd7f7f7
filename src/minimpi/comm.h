// Comm: the per-rank communication endpoint of the minimpi runtime.
//
// A deliberately MPI-shaped API (blocking matched send/recv, tuned
// collectives) so the parallel cube builder reads like the MPI program the
// paper's authors ran, while every message is recorded in the run's event
// trace (its logical and wire bytes counted) and a LogP-style virtual
// clock tracks simulated parallel time (CostModel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "array/aggregate_op.h"
#include "array/dense_array.h"
#include "array/wire_codec.h"
#include "minimpi/collectives.h"
#include "minimpi/cost_model.h"
#include "minimpi/event_trace.h"

namespace cubist {

class RuntimeState;
class ThreadPool;

class Comm {
 public:
  Comm(RuntimeState& state, int rank);

  int rank() const { return rank_; }
  int size() const;
  const CostModel& model() const;

  // --- virtual clock ---

  double clock() const { return clock_; }
  /// Sets this rank's virtual clock. Tests skew ranks with it, and the
  /// cube builder's write-back restores the construction clock after a
  /// result-collection send (core/parallel_builder.cpp).
  void set_clock(double seconds) { clock_ = seconds; }
  /// Charges `updates` aggregation updates and `cells` scan decodes to the
  /// virtual clock using the run's cost model.
  void charge_compute(std::int64_t cells_scanned, std::int64_t updates);

  // --- point to point ---

  /// Blocking send. The tag identifies the logical stream (the cube
  /// builder uses the target view's dimension mask) and keys the run's
  /// per-tag volume.
  void send_bytes(int dst, std::uint64_t tag, std::span<const std::byte> data);
  /// Blocking receive, matched by (src, tag), FIFO within a match. Every
  /// receive names its source: there is no wildcard receive, so which
  /// send a receive consumes never depends on arrival order.
  std::vector<std::byte> recv_bytes(int src, std::uint64_t tag);

  void send_values(int dst, std::uint64_t tag, std::span<const Value> data);
  std::vector<Value> recv_values(int src, std::uint64_t tag);

  // --- collectives (implemented over send/recv, so volume is counted) ---

  /// Chunk-pipelined reduction of `data` over `group` (a list of ranks
  /// containing this rank; group.size() need not be a power of two)
  /// under `options.algorithm` — binomial tree or pipelined ring/chain,
  /// both toward group[0] (minimpi/collectives.h; kAuto lets the cost
  /// tuner pick). On return, group[0] holds the
  /// elementwise combination under `op`; other members' arrays hold
  /// partials and should be considered consumed. `combine_pool` runs the
  /// receiver's elementwise combine (null = inline) under the pool's own
  /// per-rank budget, striped in fixed disjoint cell ranges.
  ///
  /// The member executes its reduce_program, the events its run records
  /// in order: the block is split into chunks (reduce_chunk_elements), and
  /// per chunk the member receives and folds each operand, then forwards
  /// the chunk, so an interior member combines and forwards chunk i before
  /// chunk i+1 arrives from below and the virtual clock sees the rounds
  /// overlap (per-chunk arrival times, not whole-block serialization).
  /// Each chunk's payload is adaptively encoded when `options.encode_wire`
  /// is on; each send event records logical and wire bytes per message,
  /// and the clock charges the transfer at wire size through CostModel's
  /// charge_* functions, the same ones simulate_reduce_seconds charges on
  /// its replay of the same program. Each member records one sample into
  /// the reduce drift gauge (obs/drift.h): its send and combine charges on
  /// the payloads it shipped and folded, against the same charges on
  /// estimate_reduce_payload's dense estimates; waits count on neither
  /// side.
  ///
  /// Determinism: every receive is fixed-source, so per destination cell
  /// the combine order is the chosen schedule's step order, identical
  /// for every chunk size, encoding choice, and combine pool — the
  /// output bits never depend on the settings.
  ///
  /// Zero-size blocks return immediately without touching the wire.
  void reduce(std::span<const int> group, DenseArray& data, std::uint64_t tag,
              AggregateOp op, const ReduceOptions& options = {},
              ThreadPool* combine_pool = nullptr);

 private:
  /// The one send primitive: ships `payload` (the chunk at `offset`
  /// elements of its block), charges the clock at wire size, and records
  /// a send event carrying `logical_bytes` and the payload's wire size.
  /// The message carries the logical size and offset too, so the receive
  /// that consumes it records both sizes as the send did.
  void send_wire(int dst, std::uint64_t tag, std::int64_t logical_bytes,
                 std::int64_t offset, std::vector<std::byte> payload);
  /// The single event-record choke point. Appends to this rank's
  /// EventTrace — the run's one comm record, from which the run's volume
  /// is derived and which the driver's post-run audit compares with the
  /// certified plan; when the obs tracer is on, displays the event as a
  /// "comm" instant (peer, tag, units) on this rank's timeline. Returns
  /// the event's EventTrace index.
  std::uint64_t trace(const TraceEvent& event);

  RuntimeState& state_;
  int rank_;
  double clock_ = 0.0;
  /// Trace index of this rank's most recent receive — the operand
  /// provenance recorded by reduce()'s combine events.
  std::uint64_t last_recv_seq_ = kNoTraceSeq;
};

}  // namespace cubist
