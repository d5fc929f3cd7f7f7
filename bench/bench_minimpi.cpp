// Microbenchmarks of the minimpi substrate itself: real wall-clock cost
// of point-to-point transfers and binomial reductions on the
// thread-rank transport (NOT the virtual clock — this measures the
// reproduction harness's own overhead).
#include "bench_util.h"

namespace cubist::bench {
namespace {

CostModel free_model() {
  CostModel model;
  model.latency = 0;
  model.bandwidth = 1e18;
  return model;
}

void BM_PingPong(benchmark::State& state) {
  const auto elements = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Runtime::run(2, free_model(), [&](Comm& comm) {
      const std::vector<Value> payload(elements, 1.0);
      if (comm.rank() == 0) {
        comm.send_values(1, 1, payload);
        comm.recv_values(1, 2);
      } else {
        comm.recv_values(0, 1);
        comm.send_values(0, 2, payload);
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(elements * sizeof(Value)));
}
BENCHMARK(BM_PingPong)->Arg(1)->Arg(1024)->Arg(65536)->Unit(
    benchmark::kMillisecond);

void BM_ReduceSum(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::int64_t block = state.range(1);
  for (auto _ : state) {
    Runtime::run(p, free_model(), [&](Comm& comm) {
      std::vector<int> group(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) group[static_cast<std::size_t>(i)] = i;
      DenseArray data{Shape{{block}}};
      data.fill(static_cast<Value>(comm.rank()));
      comm.reduce(group, data, 1, AggregateOp::kSum);
    });
  }
  state.SetBytesProcessed(state.iterations() * (p - 1) * block *
                          static_cast<std::int64_t>(sizeof(Value)));
}
BENCHMARK(BM_ReduceSum)
    ->Args({2, 16384})
    ->Args({4, 16384})
    ->Args({8, 16384})
    ->Args({16, 16384})
    ->Unit(benchmark::kMillisecond);

/// Two-tier topology reduce: virtual-clock makespan of a whole-group
/// reduction on a cluster-of-SMPs (3 ranks per node, inter-node link an
/// order of magnitude worse), forced binomial vs two-level hierarchical
/// vs the tuner. This one measures the virtual clock, not harness
/// overhead: the two-level schedule crosses the slow inter-node links
/// once per node instead of once per binomial round.
void BM_ReduceTwoTier(benchmark::State& state) {
  const int p = 8;
  const std::int64_t block = state.range(0);
  CostModel model;
  model.latency = 1e-4;
  model.overhead = 5e-6;
  model.bandwidth = 20e6;
  model.topology.ranks_per_node = 3;
  model.topology.inter.latency = 2e-3;
  model.topology.inter.overhead = 5e-5;
  model.topology.inter.bandwidth = 2.5e6;
  const auto makespan = [&](ReduceAlgorithm algorithm) {
    return Runtime::run(p, model, [&](Comm& comm) {
      std::vector<int> group(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) group[static_cast<std::size_t>(i)] = i;
      DenseArray data{Shape{{block}}};
      data.fill(static_cast<Value>(comm.rank() + 1));
      ReduceOptions options;
      options.algorithm = algorithm;
      comm.reduce(group, data, 1, AggregateOp::kSum, options);
    }).makespan_seconds;
  };
  double binomial = 0.0;
  double two_level = 0.0;
  double tuned = 0.0;
  for (auto _ : state) {
    binomial = makespan(ReduceAlgorithm::kBinomial);
    two_level = makespan(ReduceAlgorithm::kTwoLevel);
    tuned = makespan(ReduceAlgorithm::kAuto);
    state.SetIterationTime(tuned);
  }
  CUBIST_ASSERT(tuned <= binomial,
                "tuner picked a schedule slower than binomial on a "
                "two-tier topology");
  state.counters["binomial_clock_s"] = binomial;
  state.counters["two_level_clock_s"] = two_level;
  state.counters["auto_clock_s"] = tuned;
  state.counters["clock_speedup"] = tuned > 0 ? binomial / tuned : 0.0;
}
BENCHMARK(BM_ReduceTwoTier)
    ->Arg(1024)
    ->Arg(65536)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_SpawnTeardown(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const RunReport report = Runtime::run(p, free_model(), [](Comm&) {});
    benchmark::DoNotOptimize(report.makespan_seconds);
  }
}
BENCHMARK(BM_SpawnTeardown)->Arg(1)->Arg(8)->Arg(16)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace cubist::bench

BENCHMARK_MAIN();
