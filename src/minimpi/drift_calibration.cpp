// Barrier-aligned reduce replays for the clock-vs-simulation drift gauge.
#include "minimpi/drift_calibration.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "array/dense_array.h"
#include "common/error.h"
#include "minimpi/comm.h"
#include "minimpi/runtime.h"
#include "obs/drift.h"

namespace cubist {

std::vector<ReduceDriftPoint> default_reduce_drift_points() {
  std::vector<ReduceDriftPoint> points;
  const ReduceAlgorithm algorithms[] = {
      ReduceAlgorithm::kBinomial, ReduceAlgorithm::kRing,
      ReduceAlgorithm::kTwoLevel, ReduceAlgorithm::kAuto};
  for (const ReduceAlgorithm algorithm : algorithms) {
    for (const int ranks : {4, 8}) {
      ReduceDriftPoint dense;
      dense.algorithm = algorithm;
      dense.num_ranks = ranks;
      dense.elements = 1 << 12;
      dense.density = 1.0;
      dense.encode_wire = false;
      points.push_back(dense);
    }
  }
  // One encoded sparse point per algorithm: the density hint matches the
  // synthetic block's fill, so the remaining drift is the codec's actual
  // wire size vs the simulation's clamped-density proxy.
  for (const ReduceAlgorithm algorithm : algorithms) {
    ReduceDriftPoint sparse;
    sparse.algorithm = algorithm;
    sparse.num_ranks = 4;
    sparse.elements = 1 << 12;
    sparse.density = 0.25;
    sparse.encode_wire = true;
    points.push_back(sparse);
  }
  return points;
}

int calibrate_reduce_drift(const CostModel& model,
                           const std::vector<ReduceDriftPoint>& points,
                           obs::Registry& registry) {
  obs::DriftGauge& gauge = obs::reduce_clock_vs_sim_gauge(registry);
  int recorded = 0;
  for (const ReduceDriftPoint& point : points) {
    CUBIST_CHECK(point.num_ranks >= 2, "calibration needs >= 2 ranks");
    CUBIST_CHECK(point.elements > 0, "calibration needs a non-empty block");
    std::vector<int> group(static_cast<std::size_t>(point.num_ranks));
    std::iota(group.begin(), group.end(), 0);

    // Every member enters the reduce at the same (post-barrier) clock, so
    // max-over-ranks clock advance is the collective's true makespan
    // under the runtime's charging rules — the quantity the simulation
    // predicts.
    std::vector<double> advance(static_cast<std::size_t>(point.num_ranks),
                                0.0);
    Runtime::run(
        point.num_ranks, model,
        [&](Comm& comm) {
          DenseArray block(Shape({point.elements}));
          const auto cutoff = static_cast<std::int64_t>(
              point.density * static_cast<double>(1000));
          for (std::int64_t i = 0; i < block.size(); ++i) {
            // Interleaved fill at the requested density, small values so
            // the narrow encodings engage like real partial aggregates.
            if (i % 1000 < cutoff) block[i] = static_cast<Value>(1 + i % 7);
          }
          comm.barrier();
          const double entry = comm.clock();
          ReduceOptions options;
          options.algorithm = point.algorithm;
          options.density_hint = point.density;
          options.max_message_elements = point.max_message_elements;
          options.wire.enabled = point.encode_wire;
          comm.reduce(group, block, /*tag=*/1, AggregateOp::kSum, options);
          advance[static_cast<std::size_t>(comm.rank())] =
              comm.clock() - entry;
        });

    const double observed = *std::max_element(advance.begin(), advance.end());
    const ReduceAlgorithm resolved = resolve_reduce_algorithm(
        point.algorithm, group, point.elements, point.max_message_elements,
        model, point.density, point.encode_wire);
    const double predicted = simulate_reduce_seconds(
        resolved, group, point.elements, point.max_message_elements, model,
        point.density, point.encode_wire);
    gauge.record(observed, predicted);
    ++recorded;
  }
  return recorded;
}

}  // namespace cubist
