// Cost model for the virtual clock (DESIGN.md §2, "substitutions").
//
// The virtual clock models the paper's 16-node Myrinet cluster, whose
// parallel times thread-ranks sharing one process cannot reproduce: their
// messages are memory copies and they share the host's cores. Every rank
// keeps a virtual clock: compute phases advance it by work/rate, and
// messages synchronize it LogP-style (a receive completes no earlier than
// the sender's clock at send time + latency + bytes/bandwidth). The makespan
// over ranks is the simulated parallel execution time reported by the
// figure benches; real wall time and real bytes are reported alongside.
//
// Message granularity is the pipelining knob: every message carries its
// own arrival time, so a chunked reduction (Comm::reduce with a message
// cap) overlaps in virtual time — while chunk i+1 is in flight, the
// receiver's combine of chunk i advances its clock, and an interior tree
// member forwards chunk i upward before the whole block has arrived.
// Transfer seconds are charged on the bytes that actually hit the link
// (the encoded wire size, <= the dense payload), and per-message
// `overhead` is what penalizes over-fine chunking.
//
// One flat link prices every edge, as on the paper's single-switch
// cluster: `latency`, `overhead` and `bandwidth` are the whole machine.
//
// The three message charges (charge_send / charge_receive /
// charge_combine) are defined here once: Comm applies them to a rank's
// live clock and the collective tuner's replay (minimpi/collectives.h)
// applies them to simulated clocks, so a prediction is the runtime's rule
// by construction.
#pragma once

#include <algorithm>

namespace cubist {

struct CostModel {
  /// Aggregation updates (child_cell += value) per second. Default is
  /// calibrated to the paper's 250 MHz Ultra-II class nodes.
  double update_rate = 12e6;
  /// Input cells scanned/decoded per second (sparse chunk-offset decode).
  double scan_rate = 12e6;
  /// Per-message wire latency in seconds (Myrinet-class); overlaps with
  /// the sender's next work (pipelined).
  double latency = 20e-6;
  /// Per-message sender/receiver CPU overhead in seconds (LogP's `o`);
  /// does NOT overlap, so fine-grained messaging pays it per message.
  /// Default 0 keeps simple tests exact; the calibrated paper model sets
  /// a 2002-middleware-realistic value.
  double overhead = 0.0;
  /// Link bandwidth in bytes/second (Myrinet-class).
  double bandwidth = 100e6;

  double seconds_for_updates(double updates) const {
    return updates / update_rate;
  }
  double seconds_for_scan(double cells) const { return cells / scan_rate; }
  double transfer_seconds(double bytes) const { return bytes / bandwidth; }

  /// Send of `wire_bytes`: the sender's `clock` is busy for the overhead
  /// plus the transfer, and the message arrives one latency later.
  /// Returns the arrival time.
  double charge_send(double& clock, double wire_bytes) const {
    clock += overhead + transfer_seconds(wire_bytes);
    return clock + latency;
  }

  /// Receive: a message cannot be consumed before it arrives.
  static void charge_receive(double& clock, double arrival) {
    clock = std::max(clock, arrival);
  }

  /// Fold of a received operand that took `updates` element updates.
  void charge_combine(double& clock, double updates) const {
    clock += seconds_for_updates(updates);
  }
};

}  // namespace cubist
