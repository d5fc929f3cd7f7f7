#include "core/parallel_builder.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/tree_walk.h"
#include "obs/trace.h"

namespace cubist {
namespace {

/// Figure 5's hooks for one rank: every scan is traced and charged to the
/// rank's virtual clock, and every child is reduced along its aggregated
/// dimension onto the lead ranks, which alone carry it further.
struct RankHooks {
  Comm& comm;
  const ProcGrid& grid;
  AggregateOp op;
  ReduceOptions reduce_options;

  template <typename Scan>
  AggregationStats scan(DimSet view, bool input_level, std::size_t children,
                        const Scan& run) {
    obs::Span span("build", input_level ? "scan_input" : "scan_view");
    span.tag("view", static_cast<std::int64_t>(view.mask()))
        .tag("children", static_cast<std::int64_t>(children));
    const AggregationStats stats = run();
    span.tag("cells", stats.cells_scanned).tag("updates", stats.updates);
    comm.charge_compute(stats.cells_scanned, stats.updates);
    return stats;
  }

  bool finalize_child(DimSet view, DimSet child, DenseArray& block) {
    const int aggregated = view.minus(child).min_dim();
    // Combine partial blocks over the processors along the aggregated
    // dimension; the lead (coordinate 0) ends up with the final values.
    const std::vector<int> group = grid.axis_group(comm.rank(), aggregated);
    if (group.size() > 1) {
      // The per-collective timing lives in Comm::reduce's own "comm"
      // span; this one names WHICH view edge the collective finalizes.
      obs::Span span("build", "reduce_view");
      span.tag("view", static_cast<std::int64_t>(child.mask()))
          .tag("axis", static_cast<std::int64_t>(aggregated));
      comm.reduce(group, block, child.mask(), op, reduce_options);
    }
    return grid.is_lead(comm.rank(), aggregated);
  }

  void write_back(DimSet view, const DenseArray& block) {
    obs::Instant("build", "write_back")
        .tag("view", static_cast<std::int64_t>(view.mask()))
        .tag("bytes", block.bytes());
  }
};

}  // namespace

std::map<std::uint32_t, DenseArray> build_cube_parallel_rank(
    Comm& comm, const ProcGrid& grid,
    const std::vector<std::int64_t>& global_sizes,
    const SparseArray& local_root, ParallelBuildStats* stats,
    const ParallelOptions& options) {
  const int n = static_cast<int>(global_sizes.size());
  CUBIST_CHECK(grid.ndims() == n, "grid rank mismatch");
  CUBIST_CHECK(options.reduce_message_elements >= 0,
               "negative reduction message cap");
  CUBIST_CHECK(local_root.shape().extents() ==
                   grid.block(comm.rank(), global_sizes).extents(),
               "local root block shape mismatch for rank " << comm.rank());
  // All grid.size() ranks scan concurrently (SPMD threads under the
  // minimpi runtime), so each rank gets an even share of the pool; a
  // share of 1 makes every scan run inline on the rank's own thread.
  // This cap is redundant with the runtime's ScopedActiveRanks
  // registration, but keeps ranks from oversubscribing even when
  // build_cube_parallel_rank is driven by some other harness.
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &ThreadPool::global();
  AggregateOptions agg_options;
  agg_options.pool = pool;
  agg_options.max_workers = std::max(1, pool->size() / grid.size());
  ReduceOptions reduce_options;
  reduce_options.algorithm = options.reduce_algorithm;
  reduce_options.density_hint = options.reduce_density_hint;
  reduce_options.max_message_elements = options.reduce_message_elements;
  reduce_options.wire.enabled = options.encode_wire;
  reduce_options.wire.density_threshold = options.wire_density_threshold;
  reduce_options.combine_pool = pool;
  reduce_options.combine_workers = agg_options.max_workers;

  TreeWalk<RankHooks> walk(n, options.op, agg_options,
                           RankHooks{comm, grid, options.op, reduce_options});
  ViewBlocks views = walk.run(local_root);
  for (auto& [mask, view] : views) finalize_view(options.op, view);
  if (stats != nullptr) {
    const BuildStats& walked = walk.stats();
    stats->peak_live_bytes = walked.peak_live_bytes;
    stats->written_bytes = walked.written_bytes;
    stats->cells_scanned = walked.cells_scanned;
    stats->updates = walked.updates;
    stats->peak_scratch_bytes = walked.peak_scratch_bytes;
    stats->logical_bytes_sent = comm.logical_bytes_sent();
    stats->wire_bytes_sent = comm.wire_bytes_sent();
    stats->build_clock_seconds = comm.clock();
  }
  return views;
}

}  // namespace cubist
