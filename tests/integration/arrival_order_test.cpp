// Delivery-order independence, end to end: the cube's output BITS are
// identical no matter which rank runs ahead. Per-rank start skews drive
// the virtual clock, and with it the order in which messages arrive,
// through all permutations of rank priority on a 2x2 grid; the cube rank 0
// assembles from the leads' write-backs must be bit-identical every time.
// Every receive names its source, so arrival order cannot reach the result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "cubist/cubist.h"

namespace cubist {
namespace {

/// Runs the 2x2-grid construction, result gather included, with rank r
/// skewed forward by skew[r] * 0.125 virtual seconds, then serializes the
/// cube rank 0 assembled (ascending mask, raw bytes) into one blob.
std::vector<std::byte> build_with_skews(const SparseSpec& spec,
                                        const std::vector<int>& skews) {
  const std::vector<int> log_splits = {1, 1};
  const ProcGrid grid(log_splits);
  std::optional<CubeResult> assembled;
  Runtime::run(grid.size(), CostModel{}, [&](Comm& comm) {
    const int rank = comm.rank();
    comm.set_clock(static_cast<double>(skews[static_cast<std::size_t>(rank)]) *
                   0.125);
    const SparseArray local_root =
        generate_sparse_block(spec, grid.block(rank, spec.sizes));
    std::optional<CubeResult> cube = build_cube_parallel_rank(
        comm, grid, spec.sizes, local_root, /*collect_result=*/true);
    EXPECT_EQ(cube.has_value(), rank == 0);
    if (cube) assembled = std::move(cube);
  });
  std::vector<std::byte> blob;
  if (!assembled) return blob;
  for (DimSet view : assembled->stored_views()) {
    const std::uint32_t mask = view.mask();
    const auto* mask_bytes = reinterpret_cast<const std::byte*>(&mask);
    blob.insert(blob.end(), mask_bytes, mask_bytes + sizeof(mask));
    const DenseArray& block = assembled->view(view);
    const auto* data = reinterpret_cast<const std::byte*>(block.data());
    blob.insert(blob.end(), data,
                data + static_cast<std::size_t>(block.bytes()));
  }
  return blob;
}

TEST(ArrivalOrderTest, CubeBitsInvariantUnderAllDeliveryOrders) {
  SparseSpec spec;
  spec.sizes = {6, 5};
  spec.density = 0.6;
  spec.seed = 71;

  std::vector<int> skews = {0, 1, 2, 3};
  const std::vector<std::byte> baseline = build_with_skews(spec, skews);
  ASSERT_FALSE(baseline.empty());
  int permutations = 0;
  do {
    const std::vector<std::byte> blob = build_with_skews(spec, skews);
    ASSERT_EQ(blob.size(), baseline.size());
    EXPECT_EQ(std::memcmp(blob.data(), baseline.data(), blob.size()), 0)
        << "delivery order {" << skews[0] << "," << skews[1] << ","
        << skews[2] << "," << skews[3] << "} changed the cube bits";
    ++permutations;
  } while (std::next_permutation(skews.begin(), skews.end()));
  EXPECT_EQ(permutations, 24);
}

TEST(ArrivalOrderTest, ChunkedPipelineIsAlsoOrderInvariant) {
  SparseSpec spec;
  spec.sizes = {6, 5};
  spec.density = 0.6;
  spec.seed = 71;
  const std::vector<int> log_splits = {1, 1};

  // Same property through the public driver, chunk-pipelined, with the
  // full analysis gate (verifier + post-run audits) enabled.
  ParallelOptions options;
  options.reduce.max_message_elements = 4;
  options.audit = true;
  const BlockProvider provider = [&](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
  auto baseline = run_parallel_cube(spec.sizes, log_splits, CostModel{},
                                    provider, /*collect_result=*/true,
                                    options);
  auto again = run_parallel_cube(spec.sizes, log_splits, CostModel{},
                                 provider, /*collect_result=*/true, options);
  ASSERT_TRUE(baseline.cube.has_value());
  ASSERT_TRUE(again.cube.has_value());
  for (DimSet view : baseline.cube->stored_views()) {
    const DenseArray& a = baseline.cube->view(view);
    const DenseArray& b = again.cube->view(view);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.bytes())),
              0)
        << view.to_string();
  }
}

}  // namespace
}  // namespace cubist
