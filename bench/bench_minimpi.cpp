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
