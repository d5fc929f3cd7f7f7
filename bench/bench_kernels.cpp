// Microbenchmarks of the aggregation kernels — real wall time, real
// throughput (google-benchmark's bread and butter, no virtual clock).
//
// Covers: dense multi-way aggregation vs number of simultaneous targets
// (SUM, plus COUNT, MIN and MAX at one point), sparse chunk-offset
// aggregation vs chunk extent and density and in the root scans of the
// 5-D serving input and the Figure-7 input, the generic projection kernel,
// and the hash-sparse generator.
#include "bench_util.h"

namespace cubist::bench {
namespace {

/// Dense fixtures cached per shape. A function-local `static DenseArray`
/// inside a parameterized benchmark body is a trap: it is initialized
/// from the FIRST invocation's parameters and silently reused for every
/// other argument set. This cache keys on the actual shape instead, and
/// each benchmark re-fetches the array it asked for.
const DenseArray& dense_fixture(const std::vector<std::int64_t>& sizes,
                                std::uint64_t seed) {
  static std::map<std::string, DenseArray> cache;
  std::string key;
  for (std::int64_t s : sizes) {
    key += std::to_string(s);
    key += 'x';
  }
  key += '#';
  key += std::to_string(seed);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const SparseSpec spec{sizes, 1.0, seed, {}, 0.0};
    it = cache.emplace(key, generate_sparse_global(spec).to_dense()).first;
  }
  return it->second;
}

/// Arg 0: simultaneous targets; arg 1: dimensionality (3 => 48^3,
/// 4 => 32x32x32x16). Runs on the global pool, so CUBIST_THREADS selects
/// the parallelism (tools/bench_report.py sweeps it).
void dense_multiway(benchmark::State& state, AggregateOp op) {
  const auto num_targets = static_cast<std::size_t>(state.range(0));
  const std::vector<std::int64_t> sizes =
      state.range(1) == 4 ? std::vector<std::int64_t>{32, 32, 32, 16}
                          : std::vector<std::int64_t>{48, 48, 48};
  const DenseArray& parent = dense_fixture(sizes, 3);
  std::vector<DenseArray> children;
  std::vector<AggregationTarget> targets;
  children.reserve(num_targets);
  for (std::size_t pos = 0; pos < num_targets; ++pos) {
    children.emplace_back(parent.shape().without_dim(static_cast<int>(pos)),
                          identity_of(op));
  }
  for (std::size_t pos = 0; pos < num_targets; ++pos) {
    targets.push_back({DimSet::single(static_cast<int>(pos)), &children[pos]});
  }
  for (auto _ : state) {
    const AggregationStats stats =
        aggregate_children(parent, targets, BlockRange::whole(parent.shape()),
                           AggregateOptions{}, op);
    benchmark::DoNotOptimize(stats);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * parent.size() *
                          static_cast<std::int64_t>(num_targets));
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
}

void BM_DenseMultiway(benchmark::State& state) {
  dense_multiway(state, AggregateOp::kSum);
}
BENCHMARK(BM_DenseMultiway)
    ->Args({1, 3})
    ->Args({2, 3})
    ->Args({3, 3})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({3, 4})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

/// The other operators' kernel policies at the 3-target 4-D point, named
/// BM_DenseMultiway/<op>/3/4 beside the SUM rows.
[[maybe_unused]] const bool kOperatorPointsRegistered = [] {
  for (AggregateOp op :
       {AggregateOp::kCount, AggregateOp::kMin, AggregateOp::kMax}) {
    const std::string name = "BM_DenseMultiway/" + to_string(op);
    benchmark::RegisterBenchmark(name.c_str(), dense_multiway, op)
        ->Args({3, 4})
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

void BM_SparseMultiwayChunks(benchmark::State& state) {
  const std::int64_t chunk = state.range(0);
  const std::vector<std::int64_t> sizes{64, 64, 64};
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = 0.10;
  spec.seed = 5;
  spec.chunk_extents = {chunk, chunk, chunk};
  const SparseArray parent = generate_sparse_global(spec);
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back(
        {DimSet::single(pos), &children[static_cast<std::size_t>(pos)]});
  }
  for (auto _ : state) {
    const AggregationStats stats = aggregate_children(
        parent, targets, BlockRange::whole(parent.shape()));
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * parent.nnz() * 3);
  state.counters["nnz"] = static_cast<double>(parent.nnz());
}
BENCHMARK(BM_SparseMultiwayChunks)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_SparseMultiwayDensity(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  SparseSpec spec;
  spec.sizes = {64, 64, 64};
  spec.density = density;
  spec.seed = 7;
  const SparseArray parent = generate_sparse_global(spec);
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back(
        {DimSet::single(pos), &children[static_cast<std::size_t>(pos)]});
  }
  for (auto _ : state) {
    const AggregationStats stats = aggregate_children(
        parent, targets, BlockRange::whole(parent.shape()));
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * parent.nnz() * 3);
}
BENCHMARK(BM_SparseMultiwayDensity)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond);

/// One target that drops two of three positions, as a routed query's
/// projection does.
void BM_Projection(benchmark::State& state) {
  const DenseArray& parent = dense_fixture({48, 48, 48}, 9);
  DenseArray out{Shape{{48}}};
  const AggregationTarget target{DimSet::of({0, 2}), &out};
  for (auto _ : state) {
    out.fill(0);
    const AggregationStats stats =
        aggregate_children(parent, std::span(&target, 1),
                           BlockRange::whole(parent.shape()));
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * parent.size());
}
BENCHMARK(BM_Projection)->Unit(benchmark::kMillisecond);

/// Arg 0: density in percent. Generates `sizes` in default chunks on the
/// global pool.
void generator(benchmark::State& state,
               const std::vector<std::int64_t>& sizes) {
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = static_cast<double>(state.range(0)) / 100.0;
  spec.seed = 11;
  for (auto _ : state) {
    const SparseArray data = generate_sparse_global(spec);
    benchmark::DoNotOptimize(data.nnz());
  }
  state.SetItemsProcessed(state.iterations() * checked_product(sizes));
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
}

void BM_Generator(benchmark::State& state) { generator(state, {64, 64, 64}); }
BENCHMARK(BM_Generator)->Arg(5)->Arg(25)->Unit(benchmark::kMillisecond);

/// The end-to-end benchmark's serve-partial-replan input, 16x16x16x16x8 at
/// 25% density in default chunks (8 chunks of 2x16x16x16x8), is generated
/// one task per chunk: BM_Generator/16x16x16x16x8/25. Its 5-target root
/// scan is BM_SparseMultiway/16x16x16x16x8/5. The Figure-7 inputs of the
/// build and serve-zipf workloads, 64^4 at 5% and 25% in 16^4 chunks (rows
/// of 16 cells, four to a mask word), are BM_Generator/64x64x64x64/{5,25},
/// and the 4-target root scan of the 25% input, which the sequential
/// builds run, is BM_SparseMultiway/64x64x64x64/4. Its chunks keep bitmaps
/// of their positions; the 5% input's, scanned by
/// BM_SparseMultiway/64x64x64x64/d5/4, keep lists. Generated chunks are
/// coded (values 1..9); BM_SparseMultiway/64x64x64x64/raw/4 scans the 25%
/// input's cells with a distinct value at each non-zero, so every chunk is
/// raw.
const std::vector<std::int64_t> kServeSizes{16, 16, 16, 16, 8};
const std::vector<std::int64_t> kFigure7Sizes{64, 64, 64, 64};

/// `coded`'s cells, the n-th non-zero of a chunk raised by n / 2^16: a
/// chunk of more than SparseArray::kMaxCodes non-zeros is stored raw.
SparseArray raw_twin(const SparseArray& coded) {
  SparseArray raw(coded.shape(), coded.chunk_extents());
  for (std::int64_t c = 0; c < coded.num_chunks(); ++c) {
    std::vector<SparseArray::Offset> offsets =
        coded.chunk_positions(c).to_vector();
    const auto values = coded.chunk_values(c);
    std::vector<Value> distinct(offsets.size());
    for (std::size_t n = 0; n < distinct.size(); ++n) {
      distinct[n] = values[n] + static_cast<Value>(n) / 65536.0;
    }
    raw.set_chunk(c, std::move(offsets), std::move(distinct));
    CUBIST_ASSERT(!raw.chunk_values(c).coded(), "chunk " << c << " is coded");
  }
  raw.finalize();
  return raw;
}

/// Arg 0: simultaneous targets. Scans `sizes` at `density` in default
/// chunks on the global pool, in the generated (coded) chunks or, when
/// `raw`, in raw_twin's.
void sparse_root_scan(benchmark::State& state,
                      const std::vector<std::int64_t>& sizes, double density,
                      bool raw) {
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = density;
  spec.seed = 13;
  const SparseArray generated = generate_sparse_global(spec);
  const SparseArray parent = raw ? raw_twin(generated) : generated;
  const auto num_targets = static_cast<std::size_t>(state.range(0));
  std::vector<DenseArray> children;
  std::vector<AggregationTarget> targets;
  children.reserve(num_targets);
  for (std::size_t pos = 0; pos < num_targets; ++pos) {
    children.emplace_back(parent.shape().without_dim(static_cast<int>(pos)));
    targets.push_back(
        {DimSet::single(static_cast<int>(pos)), &children.back()});
  }
  for (auto _ : state) {
    const AggregationStats stats = aggregate_children(
        parent, targets, BlockRange::whole(parent.shape()));
    benchmark::DoNotOptimize(stats);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * parent.nnz() *
                          static_cast<std::int64_t>(num_targets));
  state.counters["nnz"] = static_cast<double>(parent.nnz());
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
}

[[maybe_unused]] const bool kRootScansRegistered = [] {
  benchmark::RegisterBenchmark("BM_Generator/16x16x16x16x8", generator,
                               kServeSizes)
      ->Arg(25)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_Generator/64x64x64x64", generator,
                               kFigure7Sizes)
      ->Arg(5)
      ->Arg(25)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_SparseMultiway/16x16x16x16x8",
                               sparse_root_scan, kServeSizes, 0.25, false)
      ->Arg(5)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_SparseMultiway/64x64x64x64",
                               sparse_root_scan, kFigure7Sizes, 0.25, false)
      ->Arg(4)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_SparseMultiway/64x64x64x64/d5",
                               sparse_root_scan, kFigure7Sizes, 0.05, false)
      ->Arg(4)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_SparseMultiway/64x64x64x64/raw",
                               sparse_root_scan, kFigure7Sizes, 0.25, true)
      ->Arg(4)
      ->Unit(benchmark::kMillisecond);
  return true;
}();

}  // namespace
}  // namespace cubist::bench

BENCHMARK_MAIN();
