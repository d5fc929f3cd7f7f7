// Runtime: spawns p SPMD ranks as threads and runs them to completion.
//
// This is the reproduction's stand-in for `mpirun -np p` on the paper's
// cluster (see DESIGN.md §2). Ranks share nothing except the counted
// message channels and the read-only input chunks their blocks may share;
// views and messages move only through those channels. An exception in any
// rank aborts the whole run (all blocked receivers wake with AbortedError)
// and is rethrown to the caller.
#pragma once

#include <functional>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/cost_model.h"
#include "minimpi/event_trace.h"
#include "minimpi/ledger.h"
#include "minimpi/transport.h"

namespace cubist {

/// Outcome of one SPMD run.
struct RunReport {
  /// Exact communication accounting (bytes/messages, per tag).
  VolumeReport volume;
  /// Simulated parallel execution time: max over ranks of the final
  /// virtual clock.
  double makespan_seconds = 0.0;
  /// Final virtual clock per rank.
  std::vector<double> rank_seconds;
  /// Real wall-clock time of the run (1-core host: roughly the total work
  /// of all ranks serialized).
  double wall_seconds = 0.0;
  /// Per-rank communication event record (empty unless the run was
  /// started with record_trace) — what the driver's post-run audit
  /// compares with the certified plan.
  EventTrace trace;
};

class Runtime {
 public:
  /// Runs `fn(comm)` on `num_ranks` ranks and reports. Rethrows the first
  /// rank exception after shutting down the others. With `record_trace`,
  /// every rank's sends, receives and combines are recorded into
  /// RunReport::trace, in program order, for offline audit. Messages move
  /// over the transport `make_transport` builds (called once per run);
  /// a null factory selects the in-process mailbox transport.
  static RunReport run(int num_ranks, const CostModel& model,
                       const std::function<void(Comm&)>& fn,
                       bool record_trace = false,
                       const TransportFactory& make_transport = nullptr);
};

}  // namespace cubist
