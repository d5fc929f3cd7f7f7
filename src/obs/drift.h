// Canonical drift gauges: the paper's static certificates as telemetry.
//
// Three observed-vs-model ratios, each fed by the work it watches — no
// replay, no switch: every parallel build, every Comm::reduce and every
// served query records as it runs.
//
//   cubist_drift_wire_vs_lemma1     — wire bytes shipped per view vs the
//       dense Lemma-1 volume bound (volume_by_view_elements · value
//       size), one sample per view of every parallel build. The wire
//       codec may only ever undercut the bound, so the tolerance is
//       (0, 1]: a ratio above 1 means traffic escaped the certificate,
//       far below the floor means the accounting broke.
//   cubist_drift_reduce_clock_vs_sim — one sample per Comm::reduce call
//       and member: the member's own send and combine charges on the
//       payloads it actually shipped and folded, vs the same charges on
//       the tuner's estimates of those payloads (estimate_reduce_payload,
//       which simulate_reduce_seconds prices every op on). Waits enter
//       neither side, so rank skew cannot move the ratio: it is exactly
//       1 with the codec off. With it on, the estimate prices every
//       payload dense, so the ratio falls below the floor on partial
//       aggregates far sparser than that, whose identity cells the codec
//       run-skips.
//   cubist_drift_query_cost_vs_cells — measured cells_scanned per routed
//       query vs the query_cost() planning model, one sample per
//       ancestor-routed non-point miss. Exact on the projection path by
//       the materialize_from contract, hence the tight window.
//
// Aggregate ratio = sum(observed)/sum(model); tolerances are gated by
// tools/bench_report.py --obs in CI (docs/ANALYSIS.md "Drift
// tolerances").
#pragma once

#include "obs/metrics.h"

namespace cubist::obs {

inline constexpr const char* kDriftWireVsLemma1 = "cubist_drift_wire_vs_lemma1";
inline constexpr const char* kDriftReduceClockVsSim =
    "cubist_drift_reduce_clock_vs_sim";
inline constexpr const char* kDriftQueryCostVsCells =
    "cubist_drift_query_cost_vs_cells";

// Tolerance windows on the aggregate observed/model ratio. Rationale per
// gauge above; numbers recorded in docs/ANALYSIS.md.
inline constexpr double kWireVsLemma1Min = 0.005;
inline constexpr double kWireVsLemma1Max = 1.000001;
inline constexpr double kReduceClockVsSimMin = 0.5;
inline constexpr double kReduceClockVsSimMax = 1.5;
inline constexpr double kQueryCostVsCellsMin = 0.99;
inline constexpr double kQueryCostVsCellsMax = 1.01;

/// The canonical gauges, registered in `registry` (global by default)
/// with their standard tolerances on first use.
DriftGauge& wire_vs_lemma1_gauge(Registry& registry = Registry::global());
DriftGauge& reduce_clock_vs_sim_gauge(Registry& registry = Registry::global());
DriftGauge& query_cost_vs_cells_gauge(Registry& registry = Registry::global());

}  // namespace cubist::obs
