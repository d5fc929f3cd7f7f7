// RuntimeState: the shared (runtime-internal) state behind Comm.
//
// Only the transport and the run's event trace live here; rank programs
// never touch it directly, preserving the shared-nothing model.
#pragma once

#include <vector>

#include "minimpi/cost_model.h"
#include "minimpi/event_trace.h"
#include "minimpi/transport.h"

namespace cubist {

class RuntimeState {
 public:
  RuntimeState(int size, CostModel model)
      : size_(size), model_(model), transport_(size) {
    trace_.ranks.resize(static_cast<std::size_t>(size));
  }

  int size() const { return size_; }
  const CostModel& model() const { return model_; }
  Transport& transport() { return transport_; }

  // --- the event trace: the run's one comm record ---

  /// Appends `event` to `rank`'s trace and returns its index. Lock-free
  /// by construction: each rank thread appends only to its own vector,
  /// and the trace is read only after every rank thread has joined.
  std::uint64_t record_event(int rank, const TraceEvent& event) {
    std::vector<TraceEvent>& events =
        trace_.ranks[static_cast<std::size_t>(rank)];
    events.push_back(event);
    return static_cast<std::uint64_t>(events.size()) - 1;
  }
  /// Moves the trace out (call after the rank threads joined).
  EventTrace take_trace() { return std::move(trace_); }

  /// Wakes every rank blocked in a receive with AbortedError.
  void abort_all() { transport_.abort(); }

 private:
  int size_;
  CostModel model_;
  Transport transport_;
  EventTrace trace_;
};

}  // namespace cubist
