#include "minimpi/runtime.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "minimpi/runtime_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cubist {
namespace {

/// Adds one run's volume to the process-wide export counters (cumulative
/// across runs, as Prometheus counters are meant to be).
void export_volume(const VolumeReport& volume) {
  static obs::Counter& logical = obs::Registry::global().counter(
      "cubist_comm_logical_bytes", "dense-equivalent bytes sent between ranks");
  static obs::Counter& wire = obs::Registry::global().counter(
      "cubist_comm_wire_bytes", "encoded bytes actually put on the link");
  static obs::Counter& messages = obs::Registry::global().counter(
      "cubist_comm_messages", "messages sent between ranks");
  logical.add(volume.total_bytes);
  wire.add(volume.total_wire_bytes);
  messages.add(volume.total_messages);
}

}  // namespace

RunReport Runtime::run(int num_ranks, const CostModel& model,
                       const std::function<void(Comm&)>& fn) {
  CUBIST_CHECK(num_ranks >= 1, "need at least one rank");
  CUBIST_CHECK(fn != nullptr, "null rank function");

  RuntimeState state(num_ranks, model);
  std::vector<double> rank_seconds(static_cast<std::size_t>(num_ranks), 0.0);

  // The SPMD rank threads all share the process-wide ThreadPool for their
  // intra-rank scans; register them so each rank's parallel_for budget
  // shrinks to pool_size / num_ranks and the machine never oversubscribes.
  ThreadPool::ScopedActiveRanks pool_share(num_ranks);

  std::mutex error_mutex;
  std::exception_ptr first_error;

  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      // Stable obs track per rank regardless of thread creation order.
      obs::set_thread_identity("rank-" + std::to_string(r),
                               obs::kTidRankBase + r);
      Comm comm(state, r);
      try {
        obs::Span span("runtime", "rank");
        span.tag("rank", static_cast<std::int64_t>(r));
        fn(comm);
        rank_seconds[static_cast<std::size_t>(r)] = comm.clock();
      } catch (const AbortedError&) {
        // A sibling failed first; its exception carries the report.
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        state.abort_all();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }

  RunReport report;
  report.wall_seconds = timer.elapsed_seconds();
  report.trace = state.take_trace();
  report.volume = volume_of(report.trace);
  export_volume(report.volume);
  report.rank_seconds = std::move(rank_seconds);
  report.makespan_seconds = *std::max_element(report.rank_seconds.begin(),
                                              report.rank_seconds.end());
  return report;
}

}  // namespace cubist
