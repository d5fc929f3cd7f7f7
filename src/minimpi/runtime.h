// Runtime: spawns p SPMD ranks as threads and runs them to completion.
//
// This is the reproduction's stand-in for `mpirun -np p` on the paper's
// cluster (see DESIGN.md §2). Ranks share nothing except the counted
// message channels and the read-only input chunks their blocks may share;
// views and messages move only through those channels. An exception in any
// rank aborts the whole run (all blocked receivers wake with AbortedError)
// and is rethrown to the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/cost_model.h"
#include "minimpi/event_trace.h"
#include "minimpi/transport.h"

namespace cubist {

/// Outcome of one SPMD run.
struct RunReport {
  /// Exact communication accounting (bytes/messages, per tag): volume_of
  /// `trace`, summed after the rank threads joined.
  VolumeReport volume;
  /// Simulated parallel execution time: max over ranks of the final
  /// virtual clock.
  double makespan_seconds = 0.0;
  /// Final virtual clock per rank.
  std::vector<double> rank_seconds;
  /// Real wall-clock time of the run. The ranks are threads sharing the
  /// host's cores (and the process-wide pool), so it is not the virtual
  /// makespan.
  double wall_seconds = 0.0;
  /// Per-rank communication event record, one vector per rank — the
  /// run's one comm record, which the driver's post-run audit compares
  /// with the certified plan.
  EventTrace trace;
};

class Runtime {
 public:
  /// Runs `fn(comm)` on `num_ranks` ranks and reports. Rethrows the first
  /// rank exception after shutting down the others. Every rank's sends,
  /// receives and combines are recorded into RunReport::trace, in program
  /// order; RunReport::volume is derived from its sends and added to the
  /// process-wide `cubist_comm_*` counters once per run.
  static RunReport run(int num_ranks, const CostModel& model,
                       const std::function<void(Comm&)>& fn);
};

}  // namespace cubist
