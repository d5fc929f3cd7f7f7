#include "core/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>

#include "analysis/comm_plan.h"
#include "analysis/hb_auditor.h"
#include "analysis/schedule_verifier.h"
#include "common/error.h"
#include "lattice/volume_model.h"
#include "minimpi/proc_grid.h"
#include "obs/drift.h"
#include "obs/trace.h"

namespace cubist {
namespace {

/// Copies a gathered view block into its place in the global view array,
/// one innermost row at a time. `view_dims` are the retained dimensions
/// (ascending); `root_block` is the source rank's block of the *root*,
/// restricted here to those dimensions. `payload` is the block's Values
/// row-major, as raw bytes (a received message or a rank's own view).
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

}  // namespace

ParallelCubeReport run_parallel_cube(const std::vector<std::int64_t>& sizes,
                                     const std::vector<int>& log_splits,
                                     const CostModel& model,
                                     const BlockProvider& provider,
                                     bool collect_result,
                                     const ParallelOptions& options) {
  CUBIST_CHECK(provider != nullptr, "null block provider");
  const ProcGrid grid(log_splits, model.topology);
  CUBIST_CHECK(grid.ndims() == static_cast<int>(sizes.size()),
               "grid rank mismatch");
  const int p = grid.size();
  const int n = static_cast<int>(sizes.size());

  ScheduleSpec schedule_spec;
  schedule_spec.sizes = sizes;
  schedule_spec.log_splits = log_splits;
  schedule_spec.reduce_message_elements = options.reduce_message_elements;
  // Mirror every input the collective tuner reads, so the plan resolves
  // kAuto to exactly the schedule the ranks will execute (and the post-run
  // audits rebuild the same plan).
  schedule_spec.reduce_algorithm = options.reduce_algorithm;
  schedule_spec.reduce_density_hint = options.reduce_density_hint;
  schedule_spec.encode_wire = options.encode_wire;
  schedule_spec.model = model;
  std::optional<CommPlan> plan;
  {
    obs::Span span("build", "plan_and_verify");
    span.tag("ranks", static_cast<std::int64_t>(p));
    if (options.verify_schedule) {
      plan.emplace(build_comm_plan(schedule_spec));
      const AnalysisReport preflight = verify_schedule(schedule_spec, *plan);
      CUBIST_ASSERT(preflight.ok(),
                    "pre-flight schedule verification failed:\n"
                        << preflight.to_string());
    }
  }

  ParallelCubeReport report;
  if (plan) {
    report.reduce_algorithm_by_view = plan->algorithm_by_view;
  }
  report.rank_stats.resize(static_cast<std::size_t>(p));
  std::atomic<std::int64_t> total_nnz{0};
  std::optional<CubeResult> assembled;
  if (collect_result) {
    assembled.emplace(sizes);
  }
  std::mutex assemble_mutex;  // only rank 0 writes, but keep it simple

  obs::Span run_span("build", "parallel_run");
  run_span.tag("ranks", static_cast<std::int64_t>(p))
      .tag("dims", static_cast<std::int64_t>(n));
  report.run = Runtime::run(p, model, [&](Comm& comm) {
    const int rank = comm.rank();
    const SparseArray local_root = provider(rank, grid.block(rank, sizes));
    total_nnz.fetch_add(local_root.nnz());

    ParallelBuildStats stats;
    std::map<std::uint32_t, DenseArray> local_views = build_cube_parallel_rank(
        comm, grid, sizes, local_root, &stats, options);
    report.rank_stats[static_cast<std::size_t>(rank)] = stats;

    if (!collect_result) return;
    obs::Span gather_span("build", "gather");
    comm.barrier();
    // Gather: for every proper view (ascending mask), each lead ships its
    // block to rank 0, which assembles the global array. Lead sets and
    // block geometry are deterministic, so no metadata travels.
    for (std::uint32_t mask = 0; mask + 1 < (std::uint32_t{1} << n); ++mask) {
      const DimSet view = DimSet::from_mask(mask);
      const DimSet aggregated = view.complement(n);
      const std::uint64_t tag = kGatherTagBase | mask;
      if (rank == 0) {
        DenseArray global_view{[&] {
          std::vector<std::int64_t> extents;
          for (int d : view.dims()) extents.push_back(sizes[d]);
          return Shape{extents};
        }()};
        for (int src = 0; src < p; ++src) {
          if (!grid.is_lead_for(src, aggregated)) continue;
          const BlockRange block = grid.block(src, sizes);
          if (src == 0) {
            const DenseArray& mine = local_views.at(mask);
            place_block(global_view, view.dims(), block,
                        std::as_bytes(std::span<const Value>(
                            mine.data(), static_cast<std::size_t>(mine.size()))));
          } else {
            place_block(global_view, view.dims(), block,
                        comm.recv_bytes(src, tag));
          }
        }
        std::lock_guard lock(assemble_mutex);
        assembled->put(view, std::move(global_view));
      } else if (grid.is_lead_for(rank, aggregated)) {
        const DenseArray& mine = local_views.at(mask);
        comm.send_values(
            0, tag,
            std::span<const Value>(mine.data(),
                                   static_cast<std::size_t>(mine.size())));
      }
    }
  }, /*record_trace=*/options.audit_hb);
  run_span.end();
  if (options.audit_hb) {
    obs::Span span("build", "hb_audit");
    const HbAuditReport hb = audit_event_trace(report.run.trace);
    CUBIST_ASSERT(hb.ok(),
                  "post-run happens-before audit failed:\n" << hb.to_string());
  }

  report.total_nnz = total_nnz.load();
  double makespan = 0.0;
  for (const ParallelBuildStats& stats : report.rank_stats) {
    makespan = std::max(makespan, stats.build_clock_seconds);
    report.max_peak_live_bytes =
        std::max(report.max_peak_live_bytes, stats.peak_live_bytes);
  }
  report.construction_seconds = makespan;
  for (const auto& [tag, bytes] : report.run.volume.bytes_by_tag) {
    if (tag < kGatherTagBase) {
      report.bytes_by_view[static_cast<std::uint32_t>(tag)] += bytes;
      report.construction_bytes += bytes;
    }
  }
  for (const auto& [tag, bytes] : report.run.volume.wire_bytes_by_tag) {
    if (tag < kGatherTagBase) {
      report.wire_bytes_by_view[static_cast<std::uint32_t>(tag)] += bytes;
      report.construction_wire_bytes += bytes;
    }
  }
  if (options.audit_volume) {
    obs::Span span("build", "volume_audit");
    const AnalysisReport audit =
        audit_measured_volume(schedule_spec, report.bytes_by_view);
    CUBIST_ASSERT(audit.ok(),
                  "post-run volume audit failed:\n" << audit.to_string());
    // Certify the wire side against the dense Lemma-1 per-edge bound:
    // never above it, and exactly on it when the codec is off.
    const AnalysisReport wire_audit =
        audit_wire_volume(schedule_spec, report.wire_bytes_by_view,
                          /*require_equal=*/!options.encode_wire);
    CUBIST_ASSERT(wire_audit.ok(),
                  "post-run wire-volume audit failed:\n"
                      << wire_audit.to_string());
  }

  // Live telemetry of the static certificates: per-view wire bytes over
  // the dense Lemma-1 bound (obs/drift.h), plus build high-water gauges.
  if (obs::drift_enabled()) {
    obs::DriftGauge& gauge = obs::wire_vs_lemma1_gauge();
    const std::map<std::uint32_t, std::int64_t> bound_elements =
        volume_by_view_elements(sizes, log_splits);
    for (const auto& [mask, elements] : bound_elements) {
      if (elements == 0) continue;
      const auto it = report.wire_bytes_by_view.find(mask);
      const double observed =
          it == report.wire_bytes_by_view.end()
              ? 0.0
              : static_cast<double>(it->second);
      gauge.record(observed, static_cast<double>(elements) *
                                 static_cast<double>(sizeof(Value)));
    }
  }
  obs::Registry& registry = obs::Registry::global();
  registry
      .gauge("cubist_build_makespan_seconds",
             "virtual-clock makespan of the last parallel cube build")
      .set(report.construction_seconds);
  registry
      .gauge("cubist_build_peak_live_bytes",
             "high-water live bytes across ranks (Theorem-1/4 subject)")
      .set_max(static_cast<double>(report.max_peak_live_bytes));
  std::int64_t peak_scratch = 0;
  for (const ParallelBuildStats& stats : report.rank_stats) {
    peak_scratch = std::max(peak_scratch, stats.peak_scratch_bytes);
  }
  registry
      .gauge("cubist_build_peak_scratch_bytes",
             "high-water aggregation scratch bytes across ranks")
      .set_max(static_cast<double>(peak_scratch));

  report.cube = std::move(assembled);
  return report;
}

}  // namespace cubist
