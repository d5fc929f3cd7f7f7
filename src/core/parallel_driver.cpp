#include "core/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "analysis/schedule_verifier.h"
#include "common/error.h"
#include "lattice/volume_model.h"
#include "minimpi/proc_grid.h"
#include "obs/drift.h"
#include "obs/trace.h"

namespace cubist {

ScheduleSpec schedule_spec_of(const std::vector<std::int64_t>& sizes,
                              const std::vector<int>& log_splits,
                              const CostModel& model, bool collect_result,
                              const ParallelOptions& options) {
  return {sizes, log_splits, collect_result, options.reduce, model};
}

ParallelCubeReport run_parallel_cube(const std::vector<std::int64_t>& sizes,
                                     const std::vector<int>& log_splits,
                                     const CostModel& model,
                                     const BlockProvider& provider,
                                     bool collect_result,
                                     const ParallelOptions& options) {
  CUBIST_CHECK(provider != nullptr, "null block provider");
  const ProcGrid grid(log_splits);
  CUBIST_CHECK(grid.ndims() == static_cast<int>(sizes.size()),
               "grid rank mismatch");
  const int p = grid.size();
  const int n = static_cast<int>(sizes.size());

  // One plan for the whole program, the gather included: the pre-flight
  // gate certifies it and the post-run audit checks the run against it
  // (a trace equal to an uncertified plan would prove nothing).
  const ScheduleSpec spec =
      schedule_spec_of(sizes, log_splits, model, collect_result, options);
  std::optional<CommPlan> plan;
  {
    obs::Span span("build", "plan_and_verify");
    span.tag("ranks", static_cast<std::int64_t>(p));
    if (options.audit) {
      plan.emplace(build_comm_plan(spec));
      const AnalysisReport preflight = verify_schedule(spec, *plan);
      CUBIST_ASSERT(preflight.ok(),
                    "pre-flight schedule verification failed:\n"
                        << preflight.to_string());
    }
  }

  ParallelCubeReport report;
  if (plan) {
    report.reduce_algorithm_by_group = plan->algorithm_by_group;
  }
  report.rank_stats.resize(static_cast<std::size_t>(p));
  std::atomic<std::int64_t> total_nnz{0};

  obs::Span run_span("build", "parallel_run");
  run_span.tag("ranks", static_cast<std::int64_t>(p))
      .tag("dims", static_cast<std::int64_t>(n));
  report.run = Runtime::run(p, model, [&](Comm& comm) {
    const int rank = comm.rank();
    const SparseArray local_root = provider(rank, grid.block(rank, sizes));
    total_nnz.fetch_add(local_root.nnz());

    ParallelBuildStats stats;
    std::optional<CubeResult> cube = build_cube_parallel_rank(
        comm, grid, sizes, local_root, collect_result, &stats, options);
    report.rank_stats[static_cast<std::size_t>(rank)] = stats;
    // Only rank 0 returns the cube, and the report is read after the join.
    if (cube) report.cube = std::move(cube);
  });
  run_span.end();

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
  if (options.audit) {
    obs::Span span("build", "audit");
    // The trace must be the certified program, event for event, and no
    // send may ship more wire bytes than its logical size (exactly that
    // size with the codec off). The plan's volumes are Lemma 1's, so the
    // measured volumes are too, and the wire side stays under the dense
    // per-edge bound.
    const AnalysisReport audit = audit_trace(spec, *plan, report.run.trace);
    CUBIST_ASSERT(audit.ok(), "post-run audit failed:\n" << audit.to_string());
  }

  // Live telemetry of the static certificates: per-view wire bytes over
  // the dense Lemma-1 bound (obs/drift.h), plus build high-water gauges.
  obs::DriftGauge& gauge = obs::wire_vs_lemma1_gauge();
  for (const auto& [mask, elements] :
       volume_by_view_elements(sizes, log_splits)) {
    if (elements == 0) continue;
    const auto it = report.wire_bytes_by_view.find(mask);
    const double observed = it == report.wire_bytes_by_view.end()
                                ? 0.0
                                : static_cast<double>(it->second);
    gauge.record(observed, static_cast<double>(elements) *
                               static_cast<double>(sizeof(Value)));
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

  return report;
}

}  // namespace cubist
