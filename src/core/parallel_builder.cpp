#include "core/parallel_builder.h"

#include <cstring>
#include <span>

#include "analysis/comm_plan.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "core/tree_walk.h"
#include "obs/trace.h"

namespace cubist {
namespace {

/// Copies a view block into its place in the global view array, one
/// innermost row at a time. `view_dims` are the retained dimensions
/// (ascending); `root_block` is the block's rank's block of the *root*,
/// restricted here to those dimensions. `payload` is the block's Values
/// row-major, as raw bytes (a received message or rank 0's own block).
void place_block(DenseArray& global_view, const std::vector<int>& view_dims,
                 const BlockRange& root_block,
                 std::span<const std::byte> payload) {
  const int m = static_cast<int>(view_dims.size());
  std::vector<std::int64_t> lo(static_cast<std::size_t>(m));
  std::vector<std::int64_t> extent(static_cast<std::size_t>(m));
  std::int64_t cells = 1;
  for (int i = 0; i < m; ++i) {
    lo[i] = root_block.lo(view_dims[i]);
    extent[i] = root_block.extent(view_dims[i]);
    cells *= extent[i];
  }
  CUBIST_ASSERT(payload.size() ==
                    static_cast<std::size_t>(cells) * sizeof(Value),
                "view block size mismatch");
  const Shape& shape = global_view.shape();
  // The scalar view is one row of one cell.
  const std::int64_t row = m == 0 ? 1 : extent[m - 1];
  const std::size_t row_bytes = static_cast<std::size_t>(row) * sizeof(Value);
  std::vector<std::int64_t> global = lo;
  for (std::int64_t done = 0; done < cells; done += row) {
    std::memcpy(global_view.data() + shape.linear_index(global.data()),
                payload.data() + static_cast<std::size_t>(done) * sizeof(Value),
                row_bytes);
    int i = m - 2;
    for (; i >= 0; --i) {
      if (++global[i] < lo[i] + extent[i]) break;
      global[i] = lo[i];
    }
  }
}

/// Figure 5's hooks for one rank: every scan is traced and charged to the
/// rank's virtual clock, every child is reduced along its aggregated
/// dimension onto the lead ranks, which alone carry it further, and every
/// led view is written back the moment it completes.
struct RankHooks {
  Comm& comm;
  const ProcGrid& grid;
  const std::vector<std::int64_t>& global_sizes;
  const ParallelOptions& options;
  /// Runs the scans and the reductions' combines.
  ThreadPool* pool;
  bool collect_result;
  /// Rank 0's assembled cube when the result is collected, else null.
  CubeResult* cube;

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
      comm.reduce(group, block, child.mask(), options.op, options.reduce,
                  pool);
    }
    return grid.is_lead(comm.rank(), aggregated);
  }

  /// The paper's write-back: the finished view leaves the rank here, and
  /// the walk frees its block.
  bool write_back(DimSet view, DenseArray& block) {
    finalize_view(options.op, block);
    if (!collect_result) return false;
    obs::Span span("build", "gather");
    span.tag("view", static_cast<std::int64_t>(view.mask()))
        .tag("bytes", block.bytes());
    const std::span<const Value> values(block.data(),
                                        static_cast<std::size_t>(block.size()));
    if (cube != nullptr) {
      // Rank 0 leads every view: the view enters the cube here, and the
      // other leads' blocks follow after the walk.
      std::vector<std::int64_t> extents;
      for (int d : view.dims()) extents.push_back(global_sizes[d]);
      DenseArray global{Shape{extents}};
      place_block(global, view.dims(), grid.block(0, global_sizes),
                  std::as_bytes(values));
      cube->put(view, std::move(global));
      return false;
    }
    // Collecting the result is not construction: the message keeps its
    // LogP arrival time, but the send's charges stay off this rank's
    // construction clock.
    const double clock = comm.clock();
    comm.send_values(0, kGatherTagBase | view.mask(), values);
    comm.set_clock(clock);
    return false;
  }
};

/// Rank 0, after its walk: the other leads' blocks of every view, view by
/// view in ascending mask and source by source in ascending rank — the
/// order build_comm_plan plans.
void receive_led_blocks(Comm& comm, const ProcGrid& grid,
                        const std::vector<std::int64_t>& global_sizes,
                        CubeResult& cube) {
  obs::Span span("build", "gather");
  const int n = grid.ndims();
  for (DimSet view : cube.stored_views()) {
    for (int src = 1; src < grid.size(); ++src) {
      if (!grid.is_lead_for(src, view.complement(n))) continue;
      place_block(cube.mutable_view(view), view.dims(),
                  grid.block(src, global_sizes),
                  comm.recv_bytes(src, kGatherTagBase | view.mask()));
    }
  }
}

}  // namespace

std::optional<CubeResult> build_cube_parallel_rank(
    Comm& comm, const ProcGrid& grid,
    const std::vector<std::int64_t>& global_sizes,
    const SparseArray& local_root, bool collect_result,
    ParallelBuildStats* stats, const ParallelOptions& options) {
  const int n = static_cast<int>(global_sizes.size());
  CUBIST_CHECK(grid.ndims() == n, "grid rank mismatch");
  CUBIST_CHECK(options.reduce.max_message_elements >= 0,
               "negative reduction message cap");
  CUBIST_CHECK(local_root.shape().extents() ==
                   grid.block(comm.rank(), global_sizes).extents(),
               "local root block shape mismatch for rank " << comm.rank());
  // All grid.size() ranks scan concurrently (SPMD threads under the
  // minimpi runtime, whose ScopedActiveRanks registration gives each rank
  // an even share of the pool); a share of 1 makes every scan run inline
  // on the rank's own thread.
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &ThreadPool::global();
  AggregateOptions agg_options;
  agg_options.pool = pool;

  std::optional<CubeResult> cube;
  if (collect_result && comm.rank() == 0) cube.emplace(global_sizes);
  const AggregationTree tree(n);
  TreeWalk<RankHooks> walk(
      tree, tree.completion_order(), options.op, agg_options,
      RankHooks{comm, grid, global_sizes, options, pool, collect_result,
                cube ? &*cube : nullptr});
  walk.run(local_root);
  if (stats != nullptr) {
    static_cast<BuildStats&>(*stats) = walk.stats();
    stats->build_clock_seconds = comm.clock();
  }
  if (cube) receive_led_blocks(comm, grid, global_sizes, *cube);
  return cube;
}

}  // namespace cubist
