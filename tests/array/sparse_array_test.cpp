#include "array/sparse_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>

#include "common/error.h"
#include "test_util.h"

namespace cubist {
namespace {

TEST(SparseArrayTest, EmptyArrayHasNoNonzeros) {
  const SparseArray s{Shape{{8, 8}}, {4, 4}};
  EXPECT_EQ(s.nnz(), 0);
  EXPECT_EQ(s.num_chunks(), 4);
  EXPECT_EQ(s.bytes(), 0);
}

TEST(SparseArrayTest, ChunkGridCoversArray) {
  const SparseArray s{Shape{{10, 7}}, {4, 4}};
  // ceil(10/4)=3, ceil(7/4)=2.
  EXPECT_EQ(s.chunk_grid().extent(0), 3);
  EXPECT_EQ(s.chunk_grid().extent(1), 2);
  EXPECT_EQ(s.num_chunks(), 6);
}

TEST(SparseArrayTest, BoundaryChunksAreClipped) {
  const SparseArray s{Shape{{10, 7}}, {4, 4}};
  EXPECT_EQ(s.chunk_shape_at({0, 0}), (std::vector<std::int64_t>{4, 4}));
  EXPECT_EQ(s.chunk_shape_at({2, 0}),
            (std::vector<std::int64_t>{2, 4}));  // rows 8..9 only
  EXPECT_EQ(s.chunk_shape_at({0, 1}),
            (std::vector<std::int64_t>{4, 3}));  // cols 4..6 only
  EXPECT_EQ(s.chunk_shape_at({2, 1}), (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(s.chunk_base({2, 1}), (std::vector<std::int64_t>{8, 4}));
}

TEST(SparseArrayTest, DenseRoundTrip) {
  const DenseArray dense = testing::random_dense({9, 6, 5}, 0.3, 17);
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4, 4});
  EXPECT_EQ(sparse.to_dense(), dense);
}

TEST(SparseArrayTest, DenseRoundTripWithExactChunking) {
  const DenseArray dense = testing::random_dense({8, 8}, 0.5, 3);
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4});
  EXPECT_EQ(sparse.to_dense(), dense);
}

TEST(SparseArrayTest, NnzMatchesDenseNonzeroCount) {
  const DenseArray dense = testing::random_dense({10, 10}, 0.25, 5);
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) ++count;
  }
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4});
  EXPECT_EQ(sparse.nnz(), count);
  EXPECT_DOUBLE_EQ(sparse.density(),
                   static_cast<double>(count) / 100.0);
}

TEST(SparseArrayTest, PushDropsZeros) {
  SparseArray s{Shape{{4}}, {4}};
  s.push(std::vector<std::int64_t>{1}, 0.0);
  s.push(std::vector<std::int64_t>{2}, 3.0);
  s.finalize();
  EXPECT_EQ(s.nnz(), 1);
}

TEST(SparseArrayTest, ForEachNonzeroVisitsGlobalCoordinates) {
  SparseArray s{Shape{{6, 6}}, {4, 4}};
  s.push(std::vector<std::int64_t>{5, 5}, 2.0);  // boundary chunk
  s.push(std::vector<std::int64_t>{0, 0}, 1.0);  // first chunk
  s.finalize();
  std::vector<std::pair<std::vector<std::int64_t>, Value>> seen;
  s.for_each_nonzero([&](const std::int64_t* idx, Value v) {
    seen.emplace_back(std::vector<std::int64_t>{idx[0], idx[1]}, v);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(seen[0].second, 1.0);
  EXPECT_EQ(seen[1].first, (std::vector<std::int64_t>{5, 5}));
  EXPECT_EQ(seen[1].second, 2.0);
}

TEST(SparseArrayTest, FinalizeSortsOutOfOrderPushes) {
  SparseArray s{Shape{{8}}, {8}};
  s.push(std::vector<std::int64_t>{5}, 5.0);
  s.push(std::vector<std::int64_t>{1}, 1.0);
  s.push(std::vector<std::int64_t>{3}, 3.0);
  s.finalize();
  const std::vector<SparseArray::Offset> offsets =
      s.chunk_positions(0).to_vector();
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_TRUE(offsets[0] < offsets[1] && offsets[1] < offsets[2]);
  const DenseArray dense = s.to_dense();
  EXPECT_EQ(dense[1], 1.0);
  EXPECT_EQ(dense[3], 3.0);
  EXPECT_EQ(dense[5], 5.0);
}

TEST(SparseArrayTest, DuplicateOffsetRejected) {
  SparseArray s{Shape{{8}}, {8}};
  s.push(std::vector<std::int64_t>{3}, 1.0);
  s.push(std::vector<std::int64_t>{3}, 2.0);
  EXPECT_THROW(s.finalize(), InvalidArgument);
}

TEST(SparseArrayTest, PushAfterFinalizeRejected) {
  SparseArray s{Shape{{8}}, {8}};
  s.finalize();
  EXPECT_THROW(s.push(std::vector<std::int64_t>{0}, 1.0), InvalidArgument);
}

TEST(SparseArrayTest, HugeChunkVolumeRejected) {
  EXPECT_THROW(SparseArray(Shape{{std::int64_t{1} << 20, std::int64_t{1} << 20}},
                           {std::int64_t{1} << 20, std::int64_t{1} << 20}),
               InvalidArgument);
  // One cell past the 2^16-cell cap, whether or not the array clips it.
  EXPECT_THROW(SparseArray(Shape{{65537}}, {65537}), InvalidArgument);
  EXPECT_THROW(SparseArray(Shape{{4, 4}}, {65537, 1}), InvalidArgument);
  EXPECT_NO_THROW(SparseArray(Shape{{65537}}, {65536}));
}

TEST(SparseArrayTest, ChunkOfTheCapHoldsItsLastOffset) {
  // 2^16 cells is the largest chunk: its last cell's offset is 65535,
  // the largest a 16-bit offset holds, set whole or pushed.
  ASSERT_EQ(SparseArray::kMaxChunkCells, 65536);
  const Shape shape{{16, 16, 16, 16}};
  SparseArray set{shape, shape.extents()};
  set.set_chunk(0, {0, 65535}, {1.0, 2.0});
  set.finalize();
  SparseArray pushed{shape, shape.extents()};
  pushed.push(std::vector<std::int64_t>{15, 15, 15, 15}, 2.0);
  pushed.push(std::vector<std::int64_t>{0, 0, 0, 0}, 1.0);
  pushed.finalize();
  for (const SparseArray* s : {&set, &pushed}) {
    ASSERT_EQ(s->num_chunks(), 1);
    ASSERT_EQ(s->nnz(), 2);
    EXPECT_EQ(s->chunk_positions(0).to_vector().back(), 65535);
    EXPECT_EQ(s->chunk_values(0)[1], 2.0);
    EXPECT_EQ(s->to_dense().at({15, 15, 15, 15}), 2.0);
  }
}

TEST(SparseArrayTest, BytesAccountsOffsetsAndValues) {
  SparseArray s{Shape{{8}}, {4}};
  s.push(std::vector<std::int64_t>{0}, 1.0);
  s.push(std::vector<std::int64_t>{7}, 2.0);
  s.push(std::vector<std::int64_t>{6}, 1.0);
  EXPECT_EQ(s.bytes(), 0);  // counted by finalize()
  s.finalize();
  // Each chunk is coded: a 16-bit offset and an 8-bit code a non-zero,
  // and a double per dictionary entry (1.0; then 1.0 and 2.0).
  constexpr auto kCoded = static_cast<std::int64_t>(
      sizeof(SparseArray::Offset) + sizeof(SparseArray::Code));
  EXPECT_EQ(kCoded, 3);
  EXPECT_EQ(s.bytes(), 3 * kCoded + 3 * static_cast<std::int64_t>(sizeof(Value)));
}

TEST(SparseArrayTest, SetChunkCodesUpTo256DistinctValues) {
  // Two 512-cell chunks, every cell non-zero: chunk 0 repeats 256 distinct
  // values, chunk 1 holds 257.
  SparseArray s{Shape{{1024}}, {512}};
  std::vector<SparseArray::Offset> offsets(512);
  std::vector<Value> values(512);
  for (std::size_t n = 0; n < 512; ++n) {
    offsets[n] = static_cast<SparseArray::Offset>(n);
    values[n] = static_cast<Value>(1 + n % 256);
  }
  s.set_chunk(0, offsets, values);
  for (std::size_t n = 0; n < 512; ++n) {
    values[n] = static_cast<Value>(1 + n % 257);
  }
  s.set_chunk(1, offsets, values);
  s.finalize();
  const SparseArray::ChunkValues coded = s.chunk_values(0);
  ASSERT_TRUE(coded.coded());
  EXPECT_EQ(coded.dictionary().size(), SparseArray::kMaxCodes);
  EXPECT_TRUE(coded.raw().empty());
  const SparseArray::ChunkValues raw = s.chunk_values(1);
  ASSERT_FALSE(raw.coded());
  EXPECT_EQ(raw.raw().size(), 512u);
  EXPECT_TRUE(raw.codes().empty() && raw.dictionary().empty());
  // Every cell is non-zero, so each chunk keeps a bitmap of 8 words; then
  // a byte a coded non-zero plus its dictionary, 8 bytes a raw one.
  EXPECT_TRUE(s.chunk_positions(0).bitmap() && s.chunk_positions(1).bitmap());
  EXPECT_EQ(s.bytes(), (64 + 512 + 256 * 8) + (64 + 512 * 8));
  const SparseArray copy = s;  // shares the raw chunk as it does coded ones
  EXPECT_EQ(copy.chunk_values(1).raw().data(), raw.raw().data());
  const DenseArray dense = s.to_dense();
  for (std::int64_t i = 0; i < 1024; ++i) {
    const std::int64_t n = i % 512;
    ASSERT_EQ(dense[i], static_cast<Value>(1 + n % (i < 512 ? 256 : 257))) << i;
  }
}

TEST(SparseArrayTest, CodesCompareValuesBitwise) {
  // Values one ulp apart get two codes; a NaN's payload survives coding.
  const Value one_up = std::nextafter(1.0, 2.0);
  const auto nan_bits = std::uint64_t{0x7ff8000000001234};
  const Value nan = std::bit_cast<Value>(nan_bits);
  SparseArray s{Shape{{8}}, {8}};
  s.set_chunk(0, {0, 1, 2, 3}, {1.0, one_up, nan, 1.0});
  s.finalize();
  const SparseArray::ChunkValues values = s.chunk_values(0);
  ASSERT_TRUE(values.coded());
  EXPECT_EQ(values.dictionary().size(), 3u);
  EXPECT_EQ(values[0], 1.0);
  EXPECT_EQ(values[1], one_up);
  EXPECT_NE(values.codes()[0], values.codes()[1]);
  EXPECT_EQ(values.codes()[0], values.codes()[3]);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(values[2]), nan_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(values.to_vector()[2]), nan_bits);
}

/// A bitmap word marking `cells`.
std::uint64_t bits(std::initializer_list<int> cells) {
  std::uint64_t word = 0;
  for (const int cell : cells) word |= std::uint64_t{1} << cell;
  return word;
}

TEST(SparseArrayTest, SetCodedChunkRejectsCodesItsDictionaryCannotName) {
  SparseArray s{Shape{{8}}, {8}};
  // A code at the dictionary's size.
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1, 2})}, {0, 2}, {1.0, 2.0}),
               InvalidArgument);
  // A zero dictionary entry, even one no code names.
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1})}, {0}, {1.0, 0.0}),
               InvalidArgument);
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1})}, {0}, {1.0, -0.0}),
               InvalidArgument);
  // A dictionary of 257 values; 256 are allowed.
  std::vector<Value> dictionary(SparseArray::kMaxCodes + 1);
  for (std::size_t i = 0; i < dictionary.size(); ++i) {
    dictionary[i] = static_cast<Value>(i + 1);
  }
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1})}, {0}, dictionary),
               InvalidArgument);
  dictionary.pop_back();
  // One code per marked cell.
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1, 2})}, {0}, {1.0}),
               InvalidArgument);
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1})}, {0, 0}, {1.0}),
               InvalidArgument);
  // The bitmap against the chunk's 8 cells: one word, no cell past 7.
  EXPECT_THROW(s.set_coded_chunk(0, {bits({8})}, {0}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1}), 0}, {0}, {1.0}),
               InvalidArgument);
  EXPECT_THROW(s.set_coded_chunk(0, {}, {}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.set_coded_chunk(1, {bits({0})}, {0}, {1.0}),
               InvalidArgument);
  s.set_coded_chunk(0, {bits({1, 7})}, {255, 0}, dictionary);
  s.finalize();
  EXPECT_EQ(s.nnz(), 2);
  EXPECT_EQ(s.chunk_values(0).to_vector(), (std::vector<Value>{256.0, 1.0}));
  // Two offsets take 4 bytes, a word 8: the chunk keeps the list.
  EXPECT_FALSE(s.chunk_positions(0).bitmap());
  EXPECT_EQ(s.chunk_positions(0).to_vector(),
            (std::vector<SparseArray::Offset>{1, 7}));
  EXPECT_THROW(s.set_coded_chunk(0, {bits({1})}, {0}, {1.0}),
               InvalidArgument);
}

TEST(SparseArrayTest, FinalizeMergesPushedCellsIntoACodedChunk) {
  SparseArray s{Shape{{8}}, {8}};
  s.set_coded_chunk(0, {bits({1, 5})}, {1, 0}, {3.0, 4.0});
  s.push(std::vector<std::int64_t>{3}, 4.0);
  s.push(std::vector<std::int64_t>{0}, 7.0);
  s.finalize();
  EXPECT_EQ(s.chunk_positions(0).to_vector(),
            (std::vector<SparseArray::Offset>{0, 1, 3, 5}));
  const SparseArray::ChunkValues values = s.chunk_values(0);
  ASSERT_TRUE(values.coded());
  EXPECT_EQ(values.to_vector(), (std::vector<Value>{7.0, 4.0, 4.0, 3.0}));
  EXPECT_EQ(values.dictionary().size(), 3u);
  EXPECT_EQ(s.nnz(), 4);
}

TEST(SparseArrayTest, SetChunkFillsAWholeChunk) {
  // 10x7 with 4x4 chunks: chunk 5 is the clipped 2x3 corner at (8, 4).
  SparseArray s{Shape{{10, 7}}, {4, 4}};
  s.set_chunk(0, {0, 5, 15}, {1.0, 2.0, 3.0});
  s.set_chunk(5, {0, 5}, {4.0, 5.0});
  s.finalize();
  EXPECT_EQ(s.nnz(), 5);
  const DenseArray dense = s.to_dense();
  EXPECT_EQ(dense.at({0, 0}), 1.0);
  EXPECT_EQ(dense.at({1, 1}), 2.0);
  EXPECT_EQ(dense.at({3, 3}), 3.0);
  EXPECT_EQ(dense.at({8, 4}), 4.0);
  EXPECT_EQ(dense.at({9, 6}), 5.0);

  SparseArray pushed{Shape{{10, 7}}, {4, 4}};
  for (const auto& [index, value] :
       std::vector<std::pair<std::vector<std::int64_t>, Value>>{
           {{0, 0}, 1.0}, {{1, 1}, 2.0}, {{3, 3}, 3.0}, {{8, 4}, 4.0},
           {{9, 6}, 5.0}}) {
    pushed.push(index, value);
  }
  pushed.finalize();
  EXPECT_EQ(testing::chunk_difference(s, pushed), "");
}

TEST(SparseArrayTest, SetChunkReplacesTheChunkAndFinalizeRecountsNnz) {
  SparseArray s{Shape{{8}}, {4}};
  s.push(std::vector<std::int64_t>{1}, 1.0);
  s.push(std::vector<std::int64_t>{6}, 6.0);
  s.set_chunk(0, {2, 3}, {2.0, 3.0});
  s.finalize();
  EXPECT_EQ(s.nnz(), 3);
  EXPECT_EQ(s.chunk_positions(0).to_vector(),
            (std::vector<SparseArray::Offset>{2, 3}));
}

TEST(SparseArrayTest, SetChunkRejectsAnOutOfRangeId) {
  SparseArray s{Shape{{8, 8}}, {4, 4}};
  EXPECT_THROW(s.set_chunk(-1, {0}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.set_chunk(4, {0}, {1.0}), InvalidArgument);
}

TEST(SparseArrayTest, SetChunkRejectsAFinalizedArray) {
  SparseArray s{Shape{{8}}, {8}};
  s.finalize();
  EXPECT_THROW(s.set_chunk(0, {0}, {1.0}), InvalidArgument);
}

TEST(SparseArrayTest, SetChunkRejectsMismatchedCounts) {
  SparseArray s{Shape{{8}}, {8}};
  EXPECT_THROW(s.set_chunk(0, {0, 1}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.set_chunk(0, {0}, {1.0, 2.0}), InvalidArgument);
}

TEST(SparseArrayTest, SetChunkRejectsOffsetsThatDoNotAscendStrictly) {
  SparseArray s{Shape{{8}}, {8}};
  EXPECT_THROW(s.set_chunk(0, {3, 1}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(s.set_chunk(0, {3, 3}, {1.0, 2.0}), InvalidArgument);
}

TEST(SparseArrayTest, SetChunkRejectsAnOffsetThatReachesTheChunkVolume) {
  // Chunk 5 of 10x7 under 4x4 chunks is clipped to 2x3 = 6 cells.
  SparseArray s{Shape{{10, 7}}, {4, 4}};
  EXPECT_THROW(s.set_chunk(5, {6}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.set_chunk(0, {0, 16}, {1.0, 2.0}), InvalidArgument);
  s.set_chunk(5, {5}, {1.0});
  s.finalize();
  EXPECT_EQ(s.nnz(), 1);
}

TEST(SparseArrayTest, SetChunkRejectsAZeroValue) {
  SparseArray s{Shape{{8}}, {8}};
  EXPECT_THROW(s.set_chunk(0, {1, 2}, {1.0, 0.0}), InvalidArgument);
}

TEST(SparseArrayTest, DistinctChunksCanBeSetConcurrently) {
  const DenseArray dense = testing::random_dense({16, 12, 9}, 0.3, 21);
  const SparseArray reference = SparseArray::from_dense(dense, {4, 4, 4});
  SparseArray s{dense.shape(), {4, 4, 4}};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::int64_t c = t; c < s.num_chunks(); c += kThreads) {
        s.set_chunk(c, reference.chunk_positions(c).to_vector(),
                    reference.chunk_values(c).to_vector());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  s.finalize();
  EXPECT_EQ(testing::chunk_difference(s, reference), "");
  EXPECT_EQ(s.to_dense(), dense);
}

TEST(SparseArrayTest, CopiesShareChunks) {
  // Values 1..9 code every chunk.
  const SparseArray original = SparseArray::from_dense(
      testing::random_dense({12, 9, 7}, 0.4, 23), {4, 4, 4});
  const SparseArray copy = original;
  std::int64_t shared = 0;
  for (std::int64_t c = 0; c < original.num_chunks(); ++c) {
    if (original.chunk_positions(c).empty()) continue;
    // A chunk's positions and codes are held together: the same codes are
    // the same chunk.
    ASSERT_TRUE(original.chunk_values(c).coded());
    EXPECT_EQ(copy.chunk_values(c).codes().data(),
              original.chunk_values(c).codes().data());
    EXPECT_EQ(copy.chunk_values(c).dictionary().data(),
              original.chunk_values(c).dictionary().data());
    ++shared;
  }
  EXPECT_GT(shared, 0);
  // bytes() counts a shared chunk in every array that holds it.
  EXPECT_EQ(copy.bytes(), original.bytes());
  EXPECT_EQ(copy.nnz(), original.nnz());
}

TEST(SparseArrayTest, ShareChunkPassesTheSetChunkChecks) {
  // 10x7 with 4x4 chunks: chunk 0 has 16 cells, chunk 5 is the 2x3 corner.
  SparseArray source{Shape{{10, 7}}, {4, 4}};
  source.set_chunk(0, {0, 15}, {1.0, 2.0});
  source.finalize();
  SparseArray s{Shape{{10, 7}}, {4, 4}};
  EXPECT_THROW(s.share_chunk(5, source, 0), InvalidArgument);  // offset 15 >= 6
  EXPECT_THROW(s.share_chunk(-1, source, 0), InvalidArgument);
  EXPECT_THROW(s.share_chunk(6, source, 0), InvalidArgument);
  EXPECT_THROW(s.share_chunk(0, source, 6), InvalidArgument);
  EXPECT_THROW(s.share_chunk(0, source, -1), InvalidArgument);
  s.share_chunk(0, source, 0);
  s.share_chunk(5, source, 5);  // an empty chunk shares as empty
  s.finalize();
  EXPECT_EQ(s.nnz(), 2);
  ASSERT_TRUE(source.chunk_values(0).coded());
  EXPECT_EQ(s.chunk_values(0).codes().data(),
            source.chunk_values(0).codes().data());
  EXPECT_EQ(testing::chunk_difference(s, source), "");
  EXPECT_THROW(s.share_chunk(1, source, 0), InvalidArgument);  // finalized
}

TEST(SparseArrayTest, PushIntoASharedChunkLeavesTheSourceUnchanged) {
  SparseArray source{Shape{{8}}, {4}};
  source.set_chunk(0, {1, 3}, {1.0, 3.0});
  source.finalize();
  const SparseArray::Code* source_codes = source.chunk_values(0).codes().data();

  SparseArray s{Shape{{8}}, {4}};
  s.share_chunk(0, source, 0);
  s.push(std::vector<std::int64_t>{2}, 2.0);
  s.push(std::vector<std::int64_t>{0}, 5.0);
  s.finalize();
  EXPECT_EQ(s.chunk_positions(0).to_vector(),
            (std::vector<SparseArray::Offset>{0, 1, 2, 3}));
  EXPECT_EQ(s.chunk_values(0).to_vector(),
            (std::vector<Value>{5.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(s.nnz(), 4);

  EXPECT_EQ(source.chunk_values(0).codes().data(), source_codes);
  EXPECT_EQ(source.chunk_positions(0).to_vector(),
            (std::vector<SparseArray::Offset>{1, 3}));
  EXPECT_EQ(source.nnz(), 2);

  // A pushed duplicate of a shared cell is rejected like any other.
  SparseArray dup{Shape{{8}}, {4}};
  dup.share_chunk(0, source, 0);
  dup.push(std::vector<std::int64_t>{3}, 4.0);
  EXPECT_THROW(dup.finalize(), InvalidArgument);
  EXPECT_EQ(source.chunk_positions(0).size(), 2u);
}

TEST(SparseArrayTest, ChunkKeepsABitmapPastOneNonZeroInSixteenCells) {
  // A 16^4 chunk's bitmap is 1,024 words, 8,192 bytes: the list of 4,096
  // offsets takes as much, so it stays; 4,097 take more, so they do not.
  const Shape shape{{16, 16, 16, 16}};
  for (const std::size_t count : {std::size_t{4096}, std::size_t{4097}}) {
    std::vector<SparseArray::Offset> offsets;
    std::vector<Value> values;
    for (std::size_t n = 0; n < count; ++n) {
      // Every 16th cell, then cell 1 for the 4,097th.
      offsets.push_back(static_cast<SparseArray::Offset>(n < 4096 ? 16 * n : 1));
      values.push_back(static_cast<Value>(1 + n % 9));
    }
    std::sort(offsets.begin(), offsets.end());
    SparseArray s{shape, shape.extents()};
    s.set_chunk(0, offsets, values);
    s.finalize();
    const SparseArray::ChunkPositions positions = s.chunk_positions(0);
    EXPECT_EQ(positions.bitmap(), count == 4097) << count;
    EXPECT_EQ(positions.size(), count);
    EXPECT_EQ(positions.to_vector(), offsets) << count;
    EXPECT_EQ(s.chunk_values(0).to_vector(), values) << count;
    // The positions, a code a non-zero and the nine-value dictionary.
    const std::int64_t positions_bytes =
        count == 4097 ? 1024 * 8 : static_cast<std::int64_t>(2 * count);
    EXPECT_EQ(s.bytes(),
              positions_bytes + static_cast<std::int64_t>(count) + 9 * 8)
        << count;
  }
}

TEST(SparseArrayTest, BitmapChunkOfARaggedVolumeHoldsItsLastCell) {
  // 5x7x3 = 105 cells: two words, the second holding cells 64..104 in
  // bits 0..40. Ten non-zeros take 20 bytes as a list, 16 as a bitmap.
  const Shape shape{{5, 7, 3}};
  const std::vector<SparseArray::Offset> offsets = {0,  1,  63, 64, 65,
                                                    70, 99, 102, 103, 104};
  std::vector<Value> values(offsets.size());
  for (std::size_t n = 0; n < values.size(); ++n) {
    values[n] = static_cast<Value>(n + 1);
  }
  SparseArray s{shape, shape.extents()};
  s.set_chunk(0, offsets, values);
  s.finalize();
  ASSERT_TRUE(s.chunk_positions(0).bitmap());
  EXPECT_EQ(s.chunk_positions(0).to_vector(), offsets);
  EXPECT_EQ(s.bytes(), 16 + 10 + 10 * 8);
  const DenseArray dense = s.to_dense();
  EXPECT_EQ(dense.at({4, 6, 2}), 10.0);
  EXPECT_EQ(dense.at({4, 6, 1}), 9.0);
  EXPECT_EQ(dense.at({0, 0, 0}), 1.0);
  EXPECT_EQ(testing::chunk_difference(s, SparseArray::from_dense(dense, {5, 7, 3})),
            "");
  // The generators' entry point takes the same bitmap, and no bit past
  // cell 104.
  SparseArray coded{shape, shape.extents()};
  const std::vector<SparseArray::Code> codes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 0};
  const std::uint64_t low = bits({0, 1, 63});
  const std::uint64_t high = bits({0, 1, 6, 35, 38, 39, 40});
  EXPECT_THROW(coded.set_coded_chunk(0, {low, high | bits({41})}, codes,
                                     {1, 2, 3, 4, 5, 6, 7, 8, 9}),
               InvalidArgument);
  coded.set_coded_chunk(0, {low, high}, codes, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  coded.finalize();
  ASSERT_TRUE(coded.chunk_positions(0).bitmap());
  EXPECT_EQ(coded.chunk_positions(0).to_vector(), offsets);
  EXPECT_EQ(coded.to_dense().at({4, 6, 2}), 1.0);
}

TEST(SparseArrayTest, BitmapChunksBySetChunkPushAndMergeAgree) {
  // A 4x16 chunk of 64 cells, half of them non-zero: a bitmap however it
  // is filled.
  const Shape shape{{4, 16}};
  std::vector<SparseArray::Offset> offsets;
  std::vector<Value> values;
  for (int cell = 0; cell < 64; cell += 2) {
    offsets.push_back(static_cast<SparseArray::Offset>(cell));
    values.push_back(static_cast<Value>(1 + cell % 7));
  }
  SparseArray set{shape, shape.extents()};
  set.set_chunk(0, offsets, values);
  set.finalize();
  SparseArray pushed{shape, shape.extents()};
  for (std::size_t n = offsets.size(); n-- > 0;) {  // out of order
    pushed.push(std::vector<std::int64_t>{offsets[n] / 16, offsets[n] % 16},
                values[n]);
  }
  pushed.finalize();
  // The first 20 cells set as a bitmap chunk, the rest pushed into it.
  SparseArray merged{shape, shape.extents()};
  merged.set_chunk(0, {offsets.begin(), offsets.begin() + 20},
                   {values.begin(), values.begin() + 20});
  for (std::size_t n = 20; n < offsets.size(); ++n) {
    merged.push(std::vector<std::int64_t>{offsets[n] / 16, offsets[n] % 16},
                values[n]);
  }
  merged.finalize();
  for (const SparseArray* s : {&set, &pushed, &merged}) {
    ASSERT_TRUE(s->chunk_positions(0).bitmap());
    EXPECT_EQ(s->nnz(), 32);
    EXPECT_EQ(s->bytes(), 8 + 32 + 7 * 8);
    EXPECT_EQ(testing::chunk_difference(*s, set), "");
    EXPECT_EQ(s->chunk_positions(0).to_vector(), offsets);
  }
  // A pushed duplicate of a bitmap chunk's cell is rejected.
  SparseArray dup{shape, shape.extents()};
  dup.set_chunk(0, offsets, values);
  dup.push(std::vector<std::int64_t>{3, 14}, 1.0);
  EXPECT_THROW(dup.finalize(), InvalidArgument);
}

TEST(SparseArrayTest, ShareChunkOfABitmapSharesItsStorage) {
  // 10x7 with 4x4 chunks: chunk 0 has 16 cells, ten of them non-zero.
  const Shape shape{{10, 7}};
  SparseArray source{shape, {4, 4}};
  source.set_chunk(0, {0, 1, 2, 3, 4, 5, 6, 7, 8, 15},
                   {1, 2, 3, 4, 5, 6, 7, 8, 9, 1});
  // And a 105-cell array whose one chunk is two words.
  SparseArray wide{Shape{{105}}, {105}};
  wide.set_chunk(0, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
                 {1, 2, 3, 4, 5, 6, 7, 8, 9, 1});
  source.finalize();
  wide.finalize();
  ASSERT_TRUE(source.chunk_positions(0).bitmap());
  ASSERT_TRUE(wide.chunk_positions(0).bitmap());
  SparseArray s{shape, {4, 4}};
  // Chunk 5 is the 2x3 corner: cell 15 lies past its 6 cells.
  EXPECT_THROW(s.share_chunk(5, source, 0), InvalidArgument);
  s.share_chunk(0, source, 0);
  s.finalize();
  EXPECT_TRUE(s.chunk_positions(0).bitmap());
  EXPECT_EQ(s.chunk_values(0).codes().data(),
            source.chunk_values(0).codes().data());
  EXPECT_EQ(s.bytes(), source.bytes());
  EXPECT_EQ(testing::chunk_difference(s, source), "");
  // Every marked cell of `wide` fits a 64-cell chunk, but its bitmap has
  // two words where that chunk's has one.
  SparseArray narrow{Shape{{64}}, {64}};
  EXPECT_THROW(narrow.share_chunk(0, wide, 0), InvalidArgument);
}

}  // namespace
}  // namespace cubist
