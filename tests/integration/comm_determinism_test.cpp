// The communication engine's determinism contract, end to end: the cube's
// output BITS are identical across {reduction algorithm} x {wire encoding
// on/off} x {chunk size} x {combine pool size}. Every knob of the
// pipelined reduction engine — including which collective schedule
// the tuner picks — is a pure performance knob.
//
// The generators emit integer values (1..9), so every fold order sums
// exactly in doubles and bit-identity across *different* schedules is a
// meaningful contract, not a float-ordering accident.
#include <gtest/gtest.h>

#include <cstring>

#include "common/thread_pool.h"
#include "cubist/cubist.h"

namespace cubist {
namespace {

BlockProvider provider_of(const SparseSpec& spec) {
  return [spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
}

/// Bitwise comparison of two cubes over their (identical) view sets.
::testing::AssertionResult bits_equal(const CubeResult& a,
                                      const CubeResult& b) {
  if (a.stored_views().size() != b.stored_views().size()) {
    return ::testing::AssertionFailure() << "view-set size mismatch";
  }
  for (DimSet view : a.stored_views()) {
    const DenseArray& va = a.view(view);
    const DenseArray& vb = b.view(view);
    if (va.size() != vb.size()) {
      return ::testing::AssertionFailure()
             << "view " << view.to_string() << " size mismatch";
    }
    if (std::memcmp(va.data(), vb.data(),
                    static_cast<std::size_t>(va.bytes())) != 0) {
      return ::testing::AssertionFailure()
             << "view " << view.to_string() << " bits differ";
    }
  }
  return ::testing::AssertionSuccess();
}

CubeResult build_with(const SparseSpec& spec, const std::vector<int>& splits,
                      bool encode, std::int64_t chunk, ThreadPool* pool,
                      ReduceAlgorithm algorithm = ReduceAlgorithm::kBinomial) {
  ParallelOptions options;
  options.reduce.algorithm = algorithm;
  options.reduce.encode_wire = encode;
  options.reduce.max_message_elements = chunk;
  options.pool = pool;
  options.audit = true;
  auto report =
      run_parallel_cube(spec.sizes, splits, CostModel{}, provider_of(spec),
                        /*collect_result=*/true, options);
  EXPECT_LE(report.construction_wire_bytes, report.construction_bytes);
  if (!encode) {
    EXPECT_EQ(report.construction_wire_bytes, report.construction_bytes);
  }
  return std::move(*report.cube);
}

class CommDeterminismTest : public ::testing::TestWithParam<double> {};

TEST_P(CommDeterminismTest, OutputBitsInvariantAcrossEngineKnobs) {
  SparseSpec spec;
  spec.sizes = {16, 12, 8};
  spec.density = GetParam();
  spec.seed = 23;
  const std::vector<int> splits = {1, 1, 1};  // 8 ranks

  ThreadPool serial_pool(1);
  const CubeResult baseline = build_with(spec, splits, /*encode=*/false,
                                         /*chunk=*/0, &serial_pool);
  const int hw = ThreadPool::configured_threads();
  for (bool encode : {false, true}) {
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{4096}}) {
      for (int threads : {1, hw > 1 ? hw : 4}) {
        ThreadPool pool(threads);
        const CubeResult cube =
            build_with(spec, splits, encode, chunk, &pool);
        EXPECT_TRUE(bits_equal(baseline, cube))
            << "encode=" << encode << " chunk=" << chunk
            << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, CommDeterminismTest,
                         ::testing::Values(0.02, 0.25, 1.0));

TEST(CommDeterminismTest, OutputBitsInvariantAcrossReduceAlgorithms) {
  // The full matrix of the collective registry: algorithm x encoding x
  // pool size, against the sequential reference. Group sizes 4 (dim 0)
  // and 2 (dim 1) exercise binomial interior nodes and ring interior
  // links.
  SparseSpec spec;
  spec.sizes = {16, 12, 8};
  spec.density = 0.25;
  spec.seed = 31;
  const std::vector<int> splits = {2, 1, 0};  // 8 ranks
  const CubeResult reference =
      build_cube_sequential(generate_sparse_global(spec));

  const int hw = ThreadPool::configured_threads();
  for (ReduceAlgorithm algorithm :
       {ReduceAlgorithm::kBinomial, ReduceAlgorithm::kRing,
        ReduceAlgorithm::kAuto}) {
    for (bool encode : {false, true}) {
      for (int threads : {1, hw > 1 ? hw : 4}) {
        ThreadPool pool(threads);
        const CubeResult cube = build_with(spec, splits, encode,
                                           /*chunk=*/0, &pool, algorithm);
        EXPECT_EQ(compare_cubes(reference, cube), "")
            << to_string(algorithm) << " encode=" << encode
            << " threads=" << threads;
      }
    }
  }
}

TEST(CommDeterminismTest, EncodedRunMatchesReferenceCube) {
  // Not just self-consistent: the encoded parallel cube equals the
  // sequential reference exactly.
  SparseSpec spec;
  spec.sizes = {16, 8, 8};
  spec.density = 0.1;
  spec.seed = 5;
  ParallelOptions options;
  options.reduce.encode_wire = true;
  options.reduce.max_message_elements = 64;
  options.audit = true;
  const auto report =
      run_parallel_cube(spec.sizes, {1, 1, 0}, CostModel{}, provider_of(spec),
                        /*collect_result=*/true, options);
  ASSERT_TRUE(report.cube.has_value());
  const CubeResult reference =
      build_cube_sequential(generate_sparse_global(spec));
  EXPECT_EQ(compare_cubes(reference, *report.cube), "");
}

TEST(CommDeterminismTest, VirtualClockIsReproducible) {
  // The pipelined engine must keep the simulated clock a pure function of
  // the configuration (no dependence on thread scheduling).
  SparseSpec spec;
  spec.sizes = {16, 12, 8};
  spec.density = 0.1;
  spec.seed = 40;
  ParallelOptions options;
  options.reduce.max_message_elements = 128;
  CostModel model;  // calibrated-style: every clock term active
  model.overhead = 5e-6;
  const auto run = [&] {
    return run_parallel_cube(spec.sizes, {1, 1, 0}, model, provider_of(spec),
                             /*collect_result=*/false, options);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.construction_seconds, b.construction_seconds);
  EXPECT_EQ(a.construction_wire_bytes, b.construction_wire_bytes);
  EXPECT_EQ(a.construction_bytes, b.construction_bytes);
}

}  // namespace
}  // namespace cubist
