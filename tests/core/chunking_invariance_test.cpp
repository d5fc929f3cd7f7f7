// Metamorphic relation: the chunking of the §6 chunk-offset input is a
// storage layout, so it leaves the generated array and every cube built
// from it unchanged. Each input is generated three ways: in the largest
// chunks the format allows, laid out unlike default_chunks; with
// default_chunks; and with small ragged chunks. The three arrays
// must hold the same cells, and over each of them the sequential builder
// (SUM, COUNT, MIN, MAX) and PartialCube::build (SUM) must equal the
// oracles bit for bit, on one thread and on four. The inputs include a
// Zipf array and blocks whose chunks span the block's trailing extents
// but not the array's: generation must never treat cells whose global
// indices are not consecutive as one row.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/mathutil.h"
#include "common/thread_pool.h"
#include "core/partial_cube.h"
#include "core/sequential_builder.h"
#include "core/verify.h"
#include "core/view_selection.h"
#include "io/generators.h"
#include "lattice/cube_lattice.h"
#include "test_util.h"

namespace cubist {
namespace {

struct ChunkingCase {
  const char* name;
  std::vector<std::int64_t> sizes;
  double zipf_theta;
  std::vector<std::int64_t> lo;  // the block; empty = the whole array
  std::vector<std::int64_t> hi;
  std::vector<std::int64_t> ragged_chunks;
};

// Names the case in test output (and so in the discovered test names).
void PrintTo(const ChunkingCase& c, std::ostream* out) { *out << c.name; }

BlockRange block_of(const ChunkingCase& c) {
  return c.lo.empty()
             ? BlockRange(std::vector<std::int64_t>(c.sizes.size(), 0), c.sizes)
             : BlockRange(c.lo, c.hi);
}

SparseArray generate(const ChunkingCase& c,
                     std::vector<std::int64_t> chunk_extents) {
  SparseSpec spec;
  spec.sizes = c.sizes;
  spec.density = 0.25;
  spec.seed = 71;
  spec.zipf_theta = c.zipf_theta;
  spec.chunk_extents = std::move(chunk_extents);
  return generate_sparse_block(spec, block_of(c));
}

/// Chunks of at most SparseArray::kMaxChunkCells cells, halved from the
/// block's extents in the innermost dimensions first, where
/// default_chunks halves the outermost: rows stay short and chunks span
/// the outer dimensions whole.
std::vector<std::int64_t> largest_chunks(const ChunkingCase& c) {
  std::vector<std::int64_t> chunks = block_of(c).extents();
  for (std::size_t d = chunks.size(); d-- > 0;) {
    while (chunks[d] > 1 &&
           checked_product(chunks) > SparseArray::kMaxChunkCells) {
      chunks[d] = (chunks[d] + 1) / 2;
    }
  }
  return chunks;
}

/// The input in the largest chunks, with default chunks, and with ragged
/// chunks.
std::vector<SparseArray> three_chunkings(const ChunkingCase& c) {
  std::vector<SparseArray> arrays;
  arrays.push_back(generate(c, largest_chunks(c)));
  arrays.push_back(generate(c, {}));
  arrays.push_back(generate(c, c.ragged_chunks));
  return arrays;
}

/// The first view of `actual` whose bytes differ from `expected`'s; empty
/// when every view `actual` stores is bit-identical.
std::string bit_difference(const CubeResult& expected,
                           const CubeResult& actual) {
  for (DimSet view : actual.stored_views()) {
    const DenseArray& want = expected.view(view);
    const DenseArray& got = actual.view(view);
    if (want.shape() != got.shape() ||
        std::memcmp(want.data(), got.data(),
                    static_cast<std::size_t>(want.size()) * sizeof(Value)) !=
            0) {
      return "view " + view.to_string() + " differs";
    }
  }
  return "";
}

class ChunkingInvarianceTest : public ::testing::TestWithParam<ChunkingCase> {
};

TEST_P(ChunkingInvarianceTest, ArraysAgreeCellForCell) {
  const ChunkingCase& c = GetParam();
  const std::vector<SparseArray> arrays = three_chunkings(c);
  EXPECT_GT(2 * checked_product(arrays[0].chunk_extents()),
            SparseArray::kMaxChunkCells);
  EXPECT_NE(arrays[0].chunk_extents(), arrays[1].chunk_extents());
  EXPECT_GT(arrays[1].num_chunks(), 1);
  const DenseArray cells = arrays[0].to_dense();
  for (const SparseArray& array : arrays) {
    EXPECT_EQ(array.to_dense(), cells)
        << array.num_chunks() << " chunks of "
        << Shape{array.chunk_extents()}.to_string();
  }
  // A block holds the whole array's cells (partition invariance), which
  // the ragged chunks generate a row of the last dimension at a time.
  if (!c.lo.empty()) {
    ChunkingCase whole = c;
    whole.lo.clear();
    whole.hi.clear();
    const SparseArray global = generate(whole, c.ragged_chunks);
    EXPECT_EQ(extract_block(global, block_of(c), c.ragged_chunks).to_dense(),
              cells);
  }
}

TEST_P(ChunkingInvarianceTest, CubesAreBitIdenticalToTheOracles) {
  const ChunkingCase& c = GetParam();
  const std::vector<SparseArray> arrays = three_chunkings(c);
  const CubeResult sum_oracle = reference_cube(arrays[0]);
  const std::vector<DimSet> selection =
      select_views_greedy(CubeLattice(arrays[0].shape().extents()), 3).views;
  ThreadPool one(1);
  ThreadPool four(4);
  for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kCount,
                         AggregateOp::kMin, AggregateOp::kMax}) {
    const CubeResult oracle = reference_cube(arrays[0], op);
    for (const SparseArray& array : arrays) {
      for (ThreadPool* pool : {&one, &four}) {
        EXPECT_EQ(bit_difference(oracle, build_cube_sequential(
                                             array, nullptr, op, {pool})),
                  "")
            << to_string(op) << ", " << array.num_chunks() << " chunks, "
            << pool->size() << " threads";
      }
    }
  }
  // PartialCube::build runs on the global pool: its whole budget, then a
  // budget of one thread.
  for (const SparseArray& array : arrays) {
    for (bool inline_only : {false, true}) {
      std::optional<ThreadPool::ScopedActiveRanks> ranks;
      if (inline_only) ranks.emplace(ThreadPool::global().size());
      const PartialCube partial = PartialCube::build(array, selection);
      EXPECT_EQ(partial.materialized_views().size(), selection.size());
      EXPECT_EQ(bit_difference(sum_oracle, partial.views()), "")
          << array.num_chunks() << " chunks"
          << (inline_only ? ", one thread" : "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ChunkingInvarianceTest,
    ::testing::Values(
        // Default chunks 2x16x16x16x8: 8 chunks, each one row.
        ChunkingCase{"uniform_5d", {16, 16, 16, 16, 8}, 0.0, {}, {},
                     {3, 5, 7, 6, 3}},
        // Default chunks 4x10x9x11x14 over extents that are not powers of
        // two: the last chunk along dimension 0 is clipped to 1.
        ChunkingCase{"ragged_5d", {13, 10, 9, 11, 14}, 0.0, {}, {},
                     {4, 3, 5, 6, 5}},
        // The same chunks under the Zipf skew, whose rows stay one
        // dimension long.
        ChunkingCase{"zipf_5d", {13, 10, 9, 11, 14}, 1.1, {}, {},
                     {4, 3, 5, 6, 5}},
        // A block with half the last dimension: chunks span the block's
        // trailing extents but not the array's.
        ChunkingCase{"block_half_last_dim", {16, 16, 16, 16, 8}, 0.0,
                     {0, 0, 0, 0, 4}, {16, 16, 16, 16, 8}, {3, 5, 7, 6, 3}},
        // A block with half of dimension 3: rows span the last dimension
        // (whole in the array) and stop at dimension 3.
        ChunkingCase{"block_half_dim3", {16, 16, 16, 16, 8}, 0.0,
                     {0, 0, 0, 8, 0}, {16, 16, 16, 16, 8}, {3, 5, 7, 6, 3}}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

}  // namespace
}  // namespace cubist
