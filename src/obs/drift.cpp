// Canonical drift gauge registration.
#include "obs/drift.h"

namespace cubist::obs {

DriftGauge& wire_vs_lemma1_gauge(Registry& registry) {
  return registry.drift(
      kDriftWireVsLemma1, kWireVsLemma1Min, kWireVsLemma1Max,
      "observed wire bytes per view over the dense Lemma-1 bound");
}

DriftGauge& reduce_clock_vs_sim_gauge(Registry& registry) {
  return registry.drift(
      kDriftReduceClockVsSim, kReduceClockVsSimMin, kReduceClockVsSimMax,
      "reduce send+combine clock charges on shipped payloads over the "
      "same charges on the tuner's payload estimates");
}

DriftGauge& query_cost_vs_cells_gauge(Registry& registry) {
  return registry.drift(
      kDriftQueryCostVsCells, kQueryCostVsCellsMin, kQueryCostVsCellsMax,
      "measured cells_scanned per routed query over the query_cost model");
}

}  // namespace cubist::obs
