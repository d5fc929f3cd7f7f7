// RuntimeState: the shared (runtime-internal) state behind Comm.
//
// Only the transport adaptor and synchronization primitives live here;
// rank programs never touch it directly, preserving the shared-nothing
// model. The transport is injected (Runtime::run's TransportFactory) and
// defaults to the in-process mailbox adaptor.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "minimpi/cost_model.h"
#include "minimpi/event_trace.h"
#include "minimpi/transport.h"

namespace cubist {

class RuntimeState {
 public:
  RuntimeState(int size, CostModel model,
               std::unique_ptr<Transport> transport = nullptr)
      : size_(size),
        model_(model),
        transport_(transport ? std::move(transport)
                             : make_mailbox_transport(size)) {
    trace_.ranks.resize(static_cast<std::size_t>(size));
  }

  int size() const { return size_; }
  const CostModel& model() const { return model_; }
  Transport& transport() { return *transport_; }

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

  void abort_all() {
    aborted_.store(true);
    transport_->abort();
    // Unblock barrier waiters too.
    barrier_cv_.notify_all();
  }
  bool aborted() const { return aborted_.load(); }

  /// Generation barrier that also synchronizes virtual clocks: every
  /// participant's clock becomes max(clocks) + worst-edge latency *
  /// ceil(log2(p)). Returns the released clock value.
  double barrier(double clock) {
    std::unique_lock lock(barrier_mutex_);
    const long my_generation = barrier_generation_;
    barrier_max_clock_ = std::max(barrier_max_clock_, clock);
    if (++barrier_arrived_ == size_) {
      int rounds = 0;
      while ((1 << rounds) < size_) ++rounds;
      barrier_release_clock_ =
          barrier_max_clock_ + model_.max_latency() * rounds;
      barrier_arrived_ = 0;
      barrier_max_clock_ = 0.0;
      ++barrier_generation_;
      barrier_cv_.notify_all();
    } else {
      barrier_cv_.wait(lock, [&] {
        return barrier_generation_ != my_generation || aborted_.load();
      });
      if (aborted_.load()) throw AbortedError();
    }
    return barrier_release_clock_;
  }

 private:
  int size_;
  CostModel model_;
  std::unique_ptr<Transport> transport_;
  EventTrace trace_;
  std::atomic<bool> aborted_{false};

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  long barrier_generation_ = 0;
  double barrier_max_clock_ = 0.0;
  double barrier_release_clock_ = 0.0;
};

}  // namespace cubist
