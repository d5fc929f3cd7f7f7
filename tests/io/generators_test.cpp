#include "io/generators.h"

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <optional>
#include <span>
#include <thread>

#include "array/aggregate.h"
#include "common/error.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "io/keep_bits.h"
#include "minimpi/proc_grid.h"
#include "test_util.h"

namespace cubist {
namespace {

SparseSpec spec_8x8x8(double density, std::uint64_t seed) {
  SparseSpec spec;
  spec.sizes = {8, 8, 8};
  spec.density = density;
  spec.seed = seed;
  return spec;
}

/// The uniform population rule, applied one cell at a time in the block's
/// row-major order and pushed: an independent statement of what
/// generate_sparse_block must produce when spec.zipf_theta is 0.
SparseArray reference_block(const SparseSpec& spec, const BlockRange& block) {
  const Shape global{spec.sizes};
  const Shape local = block.local_shape();
  SparseArray out(local, spec.chunk_extents.empty()
                             ? default_chunks(spec.sizes)
                             : spec.chunk_extents);
  // Every cell is kept at density 1, where density x 2^64 would overflow
  // the conversion.
  const bool keep_all = spec.density >= 1.0;
  const auto threshold =
      keep_all ? 0
               : static_cast<std::uint64_t>(
                     spec.density * 18446744073709551616.0 /* 2^64 */);
  std::vector<std::int64_t> lidx(spec.sizes.size());
  std::vector<std::int64_t> gidx(spec.sizes.size());
  for (std::int64_t linear = 0; linear < local.size(); ++linear) {
    local.unravel(linear, lidx.data());
    for (std::size_t d = 0; d < lidx.size(); ++d) {
      gidx[d] = block.lo(static_cast<int>(d)) + lidx[d];
    }
    const auto cell = static_cast<std::uint64_t>(global.linear_index(gidx.data()));
    if (!keep_all && cell_hash(spec.seed, cell) >= threshold) continue;
    out.push(lidx.data(),
             static_cast<Value>(1 + cell_hash(spec.seed ^ 0x5eed5a17u, cell) % 9));
  }
  out.finalize();
  return out;
}

/// FNV-1a digest of each chunk's offsets and values, in chunk order. Each
/// offset is hashed as a uint32, the width the pinned digests were taken
/// at, so a digest names the cells, not the offset width.
std::vector<std::uint64_t> chunk_digests(const SparseArray& array) {
  std::vector<std::uint64_t> digests;
  for (std::int64_t c = 0; c < array.num_chunks(); ++c) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::span<const std::byte> bytes) {
      for (std::byte b : bytes) {
        h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
      }
    };
    for (const SparseArray::Offset offset : array.chunk_offsets(c)) {
      const auto wide = static_cast<std::uint32_t>(offset);
      mix(std::as_bytes(std::span(&wide, 1)));
    }
    mix(std::as_bytes(array.chunk_values(c)));
    digests.push_back(h);
  }
  return digests;
}

/// FNV-1a of the chunk digests: one 64-bit digest of the whole array.
std::uint64_t array_digest(const SparseArray& array) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t digest : chunk_digests(array)) {
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((digest >> shift) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// Every child of `block` (one per aggregated dimension), from one scan.
std::vector<DenseArray> children_of(const SparseArray& block) {
  std::vector<DenseArray> children;
  children.reserve(static_cast<std::size_t>(block.ndim()));
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < block.ndim(); ++pos) {
    targets.push_back(
        {pos, &children.emplace_back(block.shape().without_dim(pos))});
  }
  aggregate_children(block, targets);
  return children;
}

bool bit_identical(const DenseArray& a, const DenseArray& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Value)) == 0;
}

/// extract_block as one filter over every non-zero of `global`, pushed
/// cell by cell.
SparseArray reference_extract(const SparseArray& global, const BlockRange& block,
                              std::vector<std::int64_t> chunk_extents) {
  SparseArray out(block.local_shape(), std::move(chunk_extents));
  std::vector<std::int64_t> local(static_cast<std::size_t>(global.ndim()));
  global.for_each_nonzero([&](const std::int64_t* index, Value value) {
    if (!block.contains(index)) return;
    block.to_local(index, local.data());
    out.push(local.data(), value);
  });
  out.finalize();
  return out;
}

TEST(GeneratorsTest, DefaultChunksClipToExtent) {
  using Extents = std::vector<std::int64_t>;
  EXPECT_EQ(default_chunks({64, 8, 4}), (Extents{16, 8, 4}));
  // A shape whose min(16, extent) chunk holds at most 2^16 cells keeps it:
  // every shape of up to 4 dimensions, and a small 5-D one.
  EXPECT_EQ(default_chunks({100}), (Extents{16}));
  EXPECT_EQ(default_chunks({64, 64, 64, 64}), (Extents{16, 16, 16, 16}));
  EXPECT_EQ(default_chunks({3, 70, 16, 5}), (Extents{3, 16, 16, 5}));
  EXPECT_EQ(default_chunks({8, 8, 8, 8, 4}), (Extents{8, 8, 8, 8, 4}));
  // A larger chunk is halved from dimension 0 first, down to 2^16 cells.
  EXPECT_EQ(default_chunks({16, 16, 16, 16, 8}), (Extents{2, 16, 16, 16, 8}));
  EXPECT_EQ(default_chunks({13, 10, 9, 11, 14}), (Extents{4, 10, 9, 11, 14}));
  EXPECT_EQ(default_chunks({64, 64, 64, 64, 64}),
            (Extents{1, 16, 16, 16, 16}));
  EXPECT_EQ(default_chunks({16, 16, 16, 16, 16, 16}),
            (Extents{1, 1, 16, 16, 16, 16}));
  EXPECT_EQ(default_chunks({5, 3, 16, 16, 16, 16, 2}),
            (Extents{1, 1, 8, 16, 16, 16, 2}));
  EXPECT_EQ(default_chunks(Extents(8, 16)),
            (Extents{1, 1, 1, 1, 16, 16, 16, 16}));
  // The same rule over many shapes of 1 to 8 dimensions: dimensions before
  // the halved one are 1, the ones after it keep min(16, extent), and the
  // halving stops at the first chunk of at most 2^16 cells.
  constexpr std::int64_t kCap = std::int64_t{1} << 16;
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    Extents sizes(1 + rng.next_below(8));
    for (std::int64_t& extent : sizes) {
      extent = 1 + static_cast<std::int64_t>(rng.next_below(40));
    }
    Extents clipped;
    for (std::int64_t extent : sizes) {
      clipped.push_back(std::min<std::int64_t>(16, extent));
    }
    const Extents chunks = default_chunks(sizes);
    ASSERT_EQ(chunks.size(), sizes.size());
    if (checked_product(clipped) <= kCap) {
      EXPECT_EQ(chunks, clipped);
      continue;
    }
    EXPECT_LE(checked_product(chunks), kCap);
    // The halved dimension is the last one the rule changed.
    std::size_t halved = 0;
    for (std::size_t d = 0; d < chunks.size(); ++d) {
      if (chunks[d] != clipped[d]) halved = d;
    }
    for (std::size_t d = 0; d < halved; ++d) EXPECT_EQ(chunks[d], 1) << d;
    // One halving fewer of that dimension would not fit.
    std::int64_t previous = clipped[halved];
    while (previous > 1 && (previous + 1) / 2 != chunks[halved]) {
      previous = (previous + 1) / 2;
    }
    ASSERT_EQ((previous + 1) / 2, chunks[halved]);
    Extents larger = chunks;
    larger[halved] = previous;
    EXPECT_GT(checked_product(larger), kCap);
  }
}

TEST(GeneratorsTest, DensityIsApproximatelyHonored) {
  for (double density : {0.05, 0.10, 0.25}) {
    SparseSpec spec;
    spec.sizes = {32, 32, 32};  // 32768 cells
    spec.density = density;
    spec.seed = 99;
    const SparseArray array = generate_sparse_global(spec);
    EXPECT_NEAR(array.density(), density, 0.02) << density;
  }
}

TEST(GeneratorsTest, ExtremeDensities) {
  SparseSpec spec = spec_8x8x8(0.0, 1);
  EXPECT_EQ(generate_sparse_global(spec).nnz(), 0);
  spec.density = 1.0;
  EXPECT_EQ(generate_sparse_global(spec).nnz(), 512);
}

TEST(GeneratorsTest, ValuesAreSmallPositiveIntegers) {
  const SparseArray array = generate_sparse_global(spec_8x8x8(0.5, 3));
  array.for_each_nonzero([](const std::int64_t*, Value v) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 9.0);
    EXPECT_EQ(v, static_cast<double>(static_cast<int>(v)));
  });
}

TEST(GeneratorsTest, DeterministicInSeed) {
  const SparseArray a = generate_sparse_global(spec_8x8x8(0.3, 5));
  const SparseArray b = generate_sparse_global(spec_8x8x8(0.3, 5));
  EXPECT_EQ(a.to_dense(), b.to_dense());
  const SparseArray c = generate_sparse_global(spec_8x8x8(0.3, 6));
  EXPECT_NE(a.to_dense(), c.to_dense());
}

TEST(GeneratorsTest, BlockGenerationIsPartitionInvariant) {
  // The load-bearing property (DESIGN.md §2): generating per-block must
  // reproduce exactly the global array, for every grid.
  const SparseSpec spec = spec_8x8x8(0.25, 17);
  const DenseArray global = generate_sparse_global(spec).to_dense();
  for (const std::vector<int>& splits :
       {std::vector<int>{1, 1, 1}, std::vector<int>{3, 0, 0},
        std::vector<int>{0, 2, 0}}) {
    const ProcGrid grid(splits);
    DenseArray reassembled{Shape{spec.sizes}};
    for (int rank = 0; rank < grid.size(); ++rank) {
      const BlockRange block = grid.block(rank, spec.sizes);
      const DenseArray local = generate_sparse_block(spec, block).to_dense();
      std::vector<std::int64_t> lidx(3);
      std::vector<std::int64_t> gidx(3);
      for (std::int64_t linear = 0; linear < local.size(); ++linear) {
        local.shape().unravel(linear, lidx.data());
        for (int d = 0; d < 3; ++d) {
          gidx[d] = block.lo(d) + lidx[d];
        }
        reassembled[reassembled.shape().linear_index(gidx.data())] =
            local[linear];
      }
    }
    EXPECT_EQ(reassembled, global) << ProcGrid(splits).to_string();
  }
}

TEST(GeneratorsTest, BlockExtentsMatchRequest) {
  const SparseSpec spec = spec_8x8x8(0.5, 1);
  const BlockRange block({2, 0, 4}, {6, 8, 8});
  const SparseArray local = generate_sparse_block(spec, block);
  EXPECT_EQ(local.shape().extents(), (std::vector<std::int64_t>{4, 8, 4}));
}

TEST(GeneratorsTest, ZipfSkewConcentratesMassAtLowCoordinates) {
  SparseSpec spec;
  spec.sizes = {64, 64};
  spec.density = 0.2;
  spec.seed = 11;
  spec.zipf_theta = 1.2;
  const SparseArray array = generate_sparse_global(spec);
  // Count non-zeros in the low vs high quadrant of dimension 0.
  std::int64_t low = 0;
  std::int64_t high = 0;
  array.for_each_nonzero([&](const std::int64_t* idx, Value) {
    if (idx[0] < 16) ++low;
    if (idx[0] >= 48) ++high;
  });
  EXPECT_GT(low, 3 * high);
  // Expected overall density is still roughly honored.
  EXPECT_NEAR(array.density(), 0.2, 0.05);
}

TEST(GeneratorsTest, ZipfIsAlsoPartitionInvariant) {
  SparseSpec spec;
  spec.sizes = {16, 16};
  spec.density = 0.3;
  spec.seed = 23;
  spec.zipf_theta = 0.8;
  const DenseArray global = generate_sparse_global(spec).to_dense();
  const BlockRange half({8, 0}, {16, 16});
  const DenseArray local = generate_sparse_block(spec, half).to_dense();
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 16; ++c) {
      EXPECT_EQ(local.at({r, c}), global.at({r + 8, c}));
    }
  }
}

TEST(GeneratorsTest, GenerateDenseMatchesSparse) {
  SparseSpec spec = spec_8x8x8(0.4, 29);
  EXPECT_EQ(generate_dense(spec.sizes, spec.density, spec.seed),
            generate_sparse_global(spec).to_dense());
}

TEST(GeneratorsTest, InvalidDensityRejected) {
  SparseSpec spec = spec_8x8x8(1.5, 1);
  EXPECT_THROW(generate_sparse_global(spec), InvalidArgument);
  spec.density = -0.1;
  EXPECT_THROW(generate_sparse_global(spec), InvalidArgument);
}

TEST(GeneratorsTest, BlocksMatchARowMajorReferenceChunkForChunk) {
  struct Case {
    std::vector<std::int64_t> sizes;
    std::vector<std::int64_t> chunks;  // empty = default_chunks
    BlockRange block;
  };
  const std::vector<Case> cases = {
      {{16, 16, 16}, {}, BlockRange({0, 0, 0}, {16, 16, 16})},
      {{1, 7, 13, 5}, {}, BlockRange({0, 0, 0, 0}, {1, 7, 13, 5})},
      {{1, 7, 13, 5}, {1, 3, 4, 2}, BlockRange({0, 2, 5, 1}, {1, 7, 11, 5})},
      {{100}, {}, BlockRange({0}, {100})},
      {{100}, {7}, BlockRange({13}, {99})},
      {{33, 17}, {5, 4}, BlockRange({0, 0}, {33, 17})},
      {{33, 17}, {5, 4}, BlockRange({6, 3}, {31, 16})},
      {{24, 20, 18}, {}, BlockRange({16, 4, 0}, {24, 20, 9})},
      // Default 5-D chunks span the trailing dimensions whole: each is one
      // row, and in the blocks rows span the dimensions the array has
      // whole and stop at the ones it does not.
      {{16, 16, 16, 16, 8}, {},
       BlockRange({0, 0, 0, 0, 0}, {16, 16, 16, 16, 8})},
      {{13, 10, 9, 11, 14}, {},
       BlockRange({0, 0, 0, 0, 0}, {13, 10, 9, 11, 14})},
      {{16, 16, 16, 16, 8}, {},
       BlockRange({0, 0, 0, 0, 4}, {16, 16, 16, 16, 8})},
      {{16, 16, 16, 16, 8}, {},
       BlockRange({0, 0, 0, 8, 0}, {16, 16, 16, 16, 8})},
      {{16, 16, 16, 16, 8}, {},
       BlockRange({3, 0, 0, 0, 0}, {16, 16, 16, 16, 8})},
      // A mask word holds 64 / L whole rows of L <= 32 cells, else one
      // row or 64 cells of one: rows of 1 (72 to a chunk, so two words),
      // 21 (3 to a word, one row left over), 16 as in the 64^4 input, 32,
      // 33 and 64 cells, 30-cell rows over three dimensions, and ragged
      // last chunks whose rows are shorter.
      {{16, 18, 4}, {8, 9, 1}, BlockRange({0, 0, 0}, {16, 18, 4})},
      {{10, 8, 42}, {5, 8, 21}, BlockRange({0, 0, 0}, {10, 8, 42})},
      {{32, 32, 32}, {}, BlockRange({0, 0, 0}, {32, 32, 32})},
      {{6, 64}, {5, 32}, BlockRange({0, 0}, {6, 64})},
      {{7, 66}, {6, 33}, BlockRange({0, 0}, {7, 66})},
      {{5, 128}, {4, 64}, BlockRange({0, 0}, {5, 128})},
      {{9, 6, 3, 5}, {2, 2, 3, 5}, BlockRange({0, 0, 0, 0}, {9, 6, 3, 5})},
      {{11, 9, 50}, {4, 4, 21}, BlockRange({0, 0, 0}, {11, 9, 50})},
      // Blocks that hold part of the last dimension: a word's rows are
      // consecutive in the chunk but not in the array.
      {{20, 24, 40}, {}, BlockRange({2, 3, 7}, {19, 24, 31})},
      {{10, 8, 42}, {5, 8, 21}, BlockRange({1, 0, 3}, {10, 7, 40})},
      // Chunks of the format's 2^16-cell cap that are one row each: the
      // offset past a row's last cell, 65,536, does not fit 16 bits.
      {{4, 16384}, {4, 16384}, BlockRange({0, 0}, {4, 16384})},
      {{3, 16, 16, 16, 16}, {1, 16, 16, 16, 16},
       BlockRange({0, 0, 0, 0, 0}, {3, 16, 16, 16, 16})},
      {{6, 16, 16, 16, 16}, {1, 16, 16, 16, 16},
       BlockRange({2, 0, 0, 0, 0}, {5, 16, 16, 16, 16})},
  };
  for (const Case& c : cases) {
    for (double density : {0.0, 0.05, 0.3, 1.0}) {
      SparseSpec spec;
      spec.sizes = c.sizes;
      spec.density = density;
      spec.seed = 31;
      spec.chunk_extents = c.chunks;
      const SparseArray generated = generate_sparse_block(spec, c.block);
      EXPECT_EQ(testing::chunk_difference(generated,
                                          reference_block(spec, c.block)),
                "")
          << c.block.to_string() << " density " << density;
    }
  }
}

TEST(GeneratorsTest, ZipfBlocksMatchExtractionFromTheGlobalArray) {
  SparseSpec spec;
  spec.sizes = {24, 20, 18};
  spec.density = 0.2;
  spec.seed = 37;
  spec.zipf_theta = 0.9;
  const SparseArray global = generate_sparse_global(spec);
  for (const BlockRange& block :
       {BlockRange({0, 0, 0}, {24, 20, 18}), BlockRange({0, 0, 0}, {16, 16, 16}),
        BlockRange({16, 4, 0}, {24, 20, 9}), BlockRange({3, 5, 7}, {21, 19, 17})}) {
    EXPECT_EQ(testing::chunk_difference(
                  generate_sparse_block(spec, block),
                  extract_block(global, block, default_chunks(spec.sizes))),
              "")
        << block.to_string();
  }
  // Short rows, each with its own p, share a mask word: 9 rows of 7 cells
  // to a word, and 32 of the ragged 2-cell rows.
  spec.sizes = {12, 10, 30};
  spec.chunk_extents = {5, 4, 7};
  spec.zipf_theta = 1.1;
  const SparseArray short_rows = generate_sparse_global(spec);
  for (const BlockRange& block :
       {BlockRange({0, 0, 0}, {12, 10, 30}), BlockRange({5, 4, 7}, {10, 8, 14}),
        BlockRange({2, 1, 3}, {12, 9, 29})}) {
    EXPECT_EQ(testing::chunk_difference(
                  generate_sparse_block(spec, block),
                  extract_block(short_rows, block, spec.chunk_extents)),
              "")
        << block.to_string();
  }
}

TEST(GeneratorsTest, VectorKeepBitsMatchTheScalarLoop) {
  if (!keep_bits::has_avx512dq()) {
    GTEST_SKIP() << "this CPU lacks AVX-512DQ, so generation runs the "
                    "scalar keep test only";
  }
  Xoshiro256ss rng(101);
  std::vector<std::uint64_t> thresholds = {
      0, 1, (std::uint64_t{1} << 63) - 1, std::uint64_t{1} << 63,
      (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0} - (1 << 11) + 1};
  for (int i = 0; i < 4; ++i) thresholds.push_back(rng.next());
  std::vector<std::uint64_t> firsts = {0, ~std::uint64_t{0} - 5};
  for (int i = 0; i < 20; ++i) firsts.push_back(rng.next());
  for (int i = 0; i < 20; ++i) firsts.push_back(rng.next_below(1 << 24));
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = rng.next();
    for (const std::uint64_t threshold : thresholds) {
      for (const std::uint64_t first : firsts) {
        for (const int count : {1, 7, 8, 9, 16, 21, 63, 64}) {
          const std::uint64_t scalar =
              keep_bits::scalar(seed, threshold, first, count);
          ASSERT_EQ(keep_bits::avx512(seed, threshold, first, count), scalar)
              << "seed " << seed << " threshold " << threshold << " first "
              << first << " count " << count;
          // The scalar loop is the per-cell rule, bit for bit.
          std::uint64_t expected = 0;
          for (int i = 0; i < count; ++i) {
            if (cell_hash(seed, first + static_cast<std::uint64_t>(i)) <
                threshold) {
              expected |= std::uint64_t{1} << i;
            }
          }
          ASSERT_EQ(scalar, expected) << "count " << count;
        }
      }
    }
  }
}

TEST(GeneratorsTest, PoolAndInlineGenerationAreIdentical) {
  SparseSpec spec;
  spec.sizes = {40, 24, 17};
  spec.density = 0.3;
  spec.seed = 43;
  spec.chunk_extents = {4, 8, 5};
  const BlockRange block({3, 0, 2}, {37, 24, 17});
  const SparseArray pooled = generate_sparse_global(spec);
  const SparseArray pooled_block = generate_sparse_block(spec, block);
  spec.zipf_theta = 1.1;
  const SparseArray pooled_zipf = generate_sparse_global(spec);
  spec.zipf_theta = 0.0;
  // Registering size() ranks leaves each a budget of one thread: inline.
  const ThreadPool::ScopedActiveRanks inline_only(ThreadPool::global().size());
  EXPECT_EQ(testing::chunk_difference(pooled, generate_sparse_global(spec)), "");
  EXPECT_EQ(testing::chunk_difference(pooled_block,
                                      generate_sparse_block(spec, block)),
            "");
  spec.zipf_theta = 1.1;
  EXPECT_EQ(testing::chunk_difference(pooled_zipf, generate_sparse_global(spec)),
            "");
}

TEST(GeneratorsTest, GeneratedBytesMatchPinnedDigests) {
  // nnz and array_digest of each spec as the per-cell rule generated them
  // (one keep test, then one value hash, per cell). The Zipf path has no
  // other independent reference, so any change to its bytes shows here.
  struct Pinned {
    const char* name;
    std::vector<std::int64_t> sizes;
    std::vector<std::int64_t> chunks;  // empty = default_chunks
    double density;
    double zipf_theta;
    std::vector<std::int64_t> lo;  // the block; empty = the whole array
    std::vector<std::int64_t> hi;
    std::int64_t nnz;
    std::uint64_t digest;
  };
  const std::vector<Pinned> pinned = {
      {"uniform 0", {24, 20, 18}, {}, 0.0, 0.0, {}, {}, 0, 0xaf3449a2699d5925},
      {"uniform 0.05", {24, 20, 18}, {}, 0.05, 0.0, {}, {},
       429, 0x622edc4fa3535b45},
      {"uniform 0.25", {24, 20, 18}, {}, 0.25, 0.0, {}, {},
       2154, 0xdd0ce601eb3127c9},
      {"uniform 1", {24, 20, 18}, {}, 1.0, 0.0, {}, {},
       8640, 0x6db9f5d38ea4443d},
      {"zipf 0.8", {24, 20, 18}, {}, 0.25, 0.8, {}, {},
       2169, 0x794553f161652daf},
      {"zipf 1.1", {24, 20, 18}, {}, 0.25, 1.1, {}, {},
       2208, 0xf5ca1594bfe2b3ac},
      {"ragged", {40, 24, 17}, {4, 8, 5}, 0.3, 0.0, {}, {},
       4983, 0xf95ed03c17245932},
      {"ragged block", {40, 24, 17}, {4, 8, 5}, 0.3, 0.0, {3, 0, 2},
       {37, 24, 17}, 3710, 0x066ac128a5e7797e},
      {"zipf block", {40, 24, 17}, {4, 8, 5}, 0.3, 1.1, {3, 5, 2},
       {37, 24, 17}, 1288, 0x8ff49c14c50be466},
      {"long rows", {5, 150}, {5, 150}, 0.25, 0.0, {}, {},
       183, 0xeffb23dc5b0536bb},
      {"zipf long rows", {6, 130}, {4, 130}, 0.25, 1.1, {1, 3}, {6, 130}, 115,
       0x29af825bc1d88e44},
      {"zipf 1-D", {300}, {300}, 0.1, 0.8, {}, {}, 24, 0xae16c5ea46e34f98},
      {"5-D largest chunks", {16, 16, 16, 16, 8}, {16, 16, 16, 2, 8}, 0.25,
       0.0, {}, {}, 130768, 0x8bc3b027e5d7dc63},
      {"5-D default chunks", {16, 16, 16, 16, 8}, {}, 0.25, 0.0, {}, {},
       130768, 0xee1e85024c1e3726},
      // 16^3 chunks of 16-cell rows, four to a mask word, as in the 64^4
      // inputs of the end-to-end benchmark.
      {"64^3 0.05", {64, 64, 64}, {}, 0.05, 0.0, {}, {}, 13181,
       0xb71f7dbae6ba47cf},
      {"64^3 0.25", {64, 64, 64}, {}, 0.25, 0.0, {}, {}, 65268,
       0xf2b50b1bdeb545e9},
  };
  for (const Pinned& p : pinned) {
    SparseSpec spec;
    spec.sizes = p.sizes;
    spec.chunk_extents = p.chunks;
    spec.density = p.density;
    spec.zipf_theta = p.zipf_theta;
    spec.seed = 97;
    const SparseArray array =
        p.lo.empty() ? generate_sparse_global(spec)
                     : generate_sparse_block(spec, BlockRange(p.lo, p.hi));
    EXPECT_EQ(array.nnz(), p.nnz) << p.name;
    EXPECT_EQ(array_digest(array), p.digest)
        << p.name << ": 0x" << std::hex << array_digest(array);
  }
}

TEST(GeneratorsTest, BlockOutsideTheArrayRejected) {
  const SparseSpec spec = spec_8x8x8(0.5, 1);
  EXPECT_THROW(generate_sparse_block(spec, BlockRange({0, 0, 4}, {8, 8, 9})),
               InvalidArgument);
  EXPECT_THROW(generate_sparse_block(spec, BlockRange({0, 0}, {8, 8})),
               InvalidArgument);
}

TEST(ExtractBlockTest, BlockOutsideTheArrayRejected) {
  const SparseArray global = generate_sparse_global(spec_8x8x8(0.5, 1));
  EXPECT_THROW(extract_block(global, BlockRange({0, 0, 4}, {8, 8, 9}), {8, 8, 5}),
               InvalidArgument);
  EXPECT_THROW(extract_block(global, BlockRange({8, 0, 0}, {9, 8, 8}), {1, 8, 8}),
               InvalidArgument);
  EXPECT_THROW(extract_block(global, BlockRange({0, 0}, {8, 8}), {8, 8}),
               InvalidArgument);
}

TEST(ExtractBlockTest, ChunkAlignedBlocksMatchTheReference) {
  // 16x16x8x8 split (2,2,1,1): every rank block is whole 4-cell chunks,
  // so every source chunk is handed over as is.
  SparseSpec spec;
  spec.sizes = {16, 16, 8, 8};
  spec.density = 0.25;
  spec.seed = 47;
  spec.chunk_extents = {4, 4, 4, 4};
  const SparseArray global = generate_sparse_global(spec);
  const ProcGrid grid({1, 1, 0, 0});
  std::int64_t total = 0;
  for (int rank = 0; rank < grid.size(); ++rank) {
    const BlockRange block = grid.block(rank, spec.sizes);
    const SparseArray extracted = extract_block(global, block, {4, 4, 4, 4});
    EXPECT_EQ(testing::chunk_difference(
                  extracted, reference_extract(global, block, {4, 4, 4, 4})),
              "")
        << block.to_string();
    total += extracted.nnz();
  }
  EXPECT_EQ(total, global.nnz());
}

TEST(ExtractBlockTest, UnalignedBlocksMatchTheReference) {
  SparseSpec spec;
  spec.sizes = {16, 16, 8, 8};
  spec.density = 0.25;
  spec.seed = 53;
  spec.chunk_extents = {4, 4, 4, 4};
  const SparseArray global = generate_sparse_global(spec);
  // Partly aligned (dims 2 and 3 copy-sized, dims 0 and 1 not), wholly
  // unaligned, and a one-cell block.
  for (const BlockRange& block :
       {BlockRange({4, 2, 0, 0}, {8, 14, 8, 8}),
        BlockRange({3, 5, 1, 2}, {13, 16, 8, 7}),
        BlockRange({15, 0, 7, 3}, {16, 1, 8, 4})}) {
    EXPECT_EQ(testing::chunk_difference(
                  extract_block(global, block, {4, 4, 4, 4}),
                  reference_extract(global, block, {4, 4, 4, 4})),
              "")
        << block.to_string();
  }
}

TEST(ExtractBlockTest, DifferentDestinationChunkingMatchesTheReference) {
  SparseSpec spec;
  spec.sizes = {16, 16, 8, 8};
  spec.density = 0.25;
  spec.seed = 59;
  spec.chunk_extents = {4, 4, 4, 4};
  const SparseArray global = generate_sparse_global(spec);
  for (const BlockRange& block :
       {BlockRange({0, 0, 0, 0}, {16, 16, 8, 8}),
        BlockRange({8, 0, 0, 0}, {16, 8, 8, 8}),
        BlockRange({3, 5, 1, 2}, {13, 16, 8, 7})}) {
    for (const std::vector<std::int64_t>& chunks :
         {std::vector<std::int64_t>{3, 5, 8, 2},
          std::vector<std::int64_t>{8, 8, 8, 8},
          std::vector<std::int64_t>{2, 2, 4, 4}}) {
      EXPECT_EQ(testing::chunk_difference(
                    extract_block(global, block, chunks),
                    reference_extract(global, block, chunks)),
                "")
          << block.to_string();
    }
  }
}

TEST(ExtractBlockTest, MatchesDirectGeneration) {
  const SparseSpec spec = spec_8x8x8(0.3, 41);
  const SparseArray global = generate_sparse_global(spec);
  const BlockRange block({0, 4, 2}, {8, 8, 6});
  const SparseArray extracted =
      extract_block(global, block, default_chunks(block.extents()));
  const SparseArray generated = generate_sparse_block(spec, block);
  EXPECT_EQ(extracted.to_dense(), generated.to_dense());
}

TEST(ExtractBlockTest, WholeArrayExtractionIsIdentity) {
  const SparseSpec spec = spec_8x8x8(0.3, 43);
  const SparseArray global = generate_sparse_global(spec);
  const BlockRange whole({0, 0, 0}, {8, 8, 8});
  const SparseArray extracted =
      extract_block(global, whole, {3, 3, 3});  // different chunking
  EXPECT_EQ(extracted.to_dense(), global.to_dense());
  EXPECT_EQ(extracted.nnz(), global.nnz());
}

TEST(ExtractBlockTest, AlignedChunksShareTheSourceStorage) {
  SparseSpec spec;
  spec.sizes = {16, 16, 8, 8};
  spec.density = 0.25;
  spec.seed = 61;
  spec.chunk_extents = {4, 4, 4, 4};
  const SparseArray global = generate_sparse_global(spec);
  const ProcGrid grid({1, 1, 0, 0});
  std::vector<std::int64_t> coords(4);
  std::vector<std::int64_t> source_coords(4);
  for (int rank = 0; rank < grid.size(); ++rank) {
    const BlockRange block = grid.block(rank, spec.sizes);
    const SparseArray extracted = extract_block(global, block, {4, 4, 4, 4});
    std::int64_t shared = 0;
    for (std::int64_t c = 0; c < extracted.num_chunks(); ++c) {
      if (extracted.chunk_offsets(c).empty()) continue;
      extracted.chunk_grid().unravel(c, coords.data());
      for (int d = 0; d < 4; ++d) source_coords[d] = coords[d] + block.lo(d) / 4;
      const std::int64_t source =
          global.chunk_grid().linear_index(source_coords.data());
      EXPECT_EQ(extracted.chunk_offsets(c).data(),
                global.chunk_offsets(source).data())
          << block.to_string() << " chunk " << c;
      EXPECT_EQ(extracted.chunk_values(c).data(),
                global.chunk_values(source).data())
          << block.to_string() << " chunk " << c;
      ++shared;
    }
    EXPECT_EQ(shared, extracted.num_chunks()) << block.to_string();
  }
}

TEST(ExtractBlockTest, BlockOutlivesItsSource) {
  SparseSpec spec;
  spec.sizes = {16, 16, 8, 8};
  spec.density = 0.25;
  spec.seed = 67;
  spec.chunk_extents = {4, 4, 4, 4};
  std::optional<SparseArray> global(generate_sparse_global(spec));
  std::vector<SparseArray> extracted;
  std::vector<SparseArray> references;
  // Whole chunks only, whole and straddling chunks, and a re-chunking.
  for (const auto& [block, chunks] :
       {std::pair{BlockRange({8, 0, 0, 0}, {16, 8, 8, 8}),
                  std::vector<std::int64_t>{4, 4, 4, 4}},
        std::pair{BlockRange({0, 0, 0, 0}, {16, 16, 8, 6}),
                  std::vector<std::int64_t>{4, 4, 4, 4}},
        std::pair{BlockRange({0, 0, 0, 0}, {16, 16, 8, 8}),
                  std::vector<std::int64_t>{8, 8, 8, 8}}}) {
    extracted.push_back(extract_block(*global, block, chunks));
    references.push_back(reference_extract(*global, block, chunks));
  }
  global.reset();
  for (std::size_t i = 0; i < extracted.size(); ++i) {
    EXPECT_EQ(testing::chunk_difference(extracted[i], references[i]), "")
        << "block " << i;
  }
}

TEST(ExtractBlockTest, PushAndFinalizeLeaveEverySourceChunkUnchanged) {
  SparseSpec spec;
  spec.sizes = {16, 16, 8, 8};
  spec.density = 0.25;
  spec.seed = 71;
  spec.chunk_extents = {4, 4, 4, 4};
  const SparseArray global = generate_sparse_global(spec);
  const std::vector<std::uint64_t> before = chunk_digests(global);
  // Dimension 3 keeps [0, 6): its first chunk is whole and shared, its
  // second straddles the edge and is pushed cell by cell.
  const BlockRange block({0, 0, 0, 0}, {16, 16, 8, 6});
  const SparseArray extracted = extract_block(global, block, {4, 4, 4, 4});
  EXPECT_EQ(testing::chunk_difference(
                extracted, reference_extract(global, block, {4, 4, 4, 4})),
            "");
  EXPECT_EQ(chunk_digests(global), before);

  // Pushing into the shared chunks of a copy builds new chunks too.
  SparseArray copy(extracted.shape(), extracted.chunk_extents());
  for (std::int64_t c = 0; c < extracted.num_chunks(); ++c) {
    copy.share_chunk(c, extracted, c);
  }
  const std::vector<std::uint64_t> extracted_before = chunk_digests(extracted);
  const DenseArray dense = extracted.to_dense();
  std::vector<std::int64_t> index(4);
  for (std::int64_t linear = 0; linear < dense.size(); linear += 97) {
    dense.shape().unravel(linear, index.data());
    if (dense[linear] == Value{0}) copy.push(index.data(), 1.0);
  }
  copy.finalize();
  EXPECT_GT(copy.nnz(), extracted.nnz());
  EXPECT_EQ(chunk_digests(extracted), extracted_before);
  EXPECT_EQ(chunk_digests(global), before);
}

TEST(ExtractBlockTest, ConcurrentSharersAndASourceDropMatchOneThread) {
  SparseSpec spec;
  spec.sizes = {16, 16, 8, 8};
  spec.density = 0.25;
  spec.seed = 73;
  spec.chunk_extents = {4, 4, 4, 4};
  std::optional<SparseArray> global(generate_sparse_global(spec));
  const ProcGrid grid({1, 1, 0, 0});
  constexpr int kThreads = 4;
  std::vector<std::vector<DenseArray>> expected;
  {
    const ThreadPool::ScopedActiveRanks inline_only(ThreadPool::global().size());
    for (int t = 0; t < kThreads; ++t) {
      expected.push_back(children_of(extract_block(
          *global, grid.block(t, spec.sizes), {4, 4, 4, 4})));
    }
  }
  std::vector<std::vector<DenseArray>> children(kThreads);
  std::latch extracted(kThreads);
  {
    const ThreadPool::ScopedActiveRanks ranks(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::optional<SparseArray> block(extract_block(
            *global, grid.block(t, spec.sizes), {4, 4, 4, 4}));
        extracted.count_down();
        children[static_cast<std::size_t>(t)] = children_of(*block);
        block.reset();
      });
    }
    // Every block holds its chunks now; drop the source while the threads
    // scan and drop them.
    extracted.wait();
    global.reset();
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(children[t].size(), expected[t].size());
    for (std::size_t pos = 0; pos < expected[t].size(); ++pos) {
      EXPECT_TRUE(bit_identical(children[t][pos], expected[t][pos]))
          << "rank " << t << " child " << pos;
    }
  }
}

}  // namespace
}  // namespace cubist
