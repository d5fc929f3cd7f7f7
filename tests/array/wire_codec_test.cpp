// Adaptive wire codec: round-trip fidelity, the strictly-smaller-than-raw
// contract, and the non-materializing combine.
#include "array/wire_codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace cubist {
namespace {

std::vector<std::byte> bytes_of(std::span<const Value> values) {
  std::vector<std::byte> out(values.size_bytes());
  if (!values.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

bool bit_equal(std::span<const Value> a, std::span<const Value> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// encode -> decode must reproduce the chunk bit-for-bit, and the payload
/// must respect the wire contract: exactly raw size iff raw.
void check_round_trip(const std::vector<Value>& chunk, AggregateOp op,
                      bool encode_wire = true) {
  const std::vector<std::byte> payload = encode_chunk(chunk, op, encode_wire);
  const auto n = static_cast<std::int64_t>(chunk.size());
  ASSERT_LE(payload.size(), chunk.size() * sizeof(Value));
  const std::vector<Value> decoded = decode_chunk(payload, n, op);
  EXPECT_TRUE(bit_equal(decoded, chunk));
  // Combining the payload must be bit-identical to the raw dense combine
  // (cell-by-cell scalar `combine`). Note this is NOT always bit-equal to
  // the chunk itself: e.g. -0.0 + (+0.0 identity) = +0.0 on both paths.
  std::vector<Value> reference(chunk.size(), identity_of(op));
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    combine(op, reference[i], chunk[i]);
  }
  std::vector<Value> dst(chunk.size(), identity_of(op));
  const std::int64_t updates = combine_chunk(op, dst, payload);
  EXPECT_LE(updates, n);
  EXPECT_TRUE(bit_equal(dst, reference))
      << "combine must match the raw dense combine bit-for-bit";
}

TEST(WireCodecTest, EmptyChunkIsEmptyRaw) {
  const std::vector<Value> chunk;
  const auto payload = encode_chunk(chunk, AggregateOp::kSum, true);
  EXPECT_TRUE(payload.empty());
  const auto view = parse_chunk(payload, 0);
  EXPECT_EQ(view.kind, WireKind::kRaw);
  EXPECT_EQ(view.value_count, 0);
  check_round_trip(chunk, AggregateOp::kSum);
}

TEST(WireCodecTest, AllIdentityShrinksToHeader) {
  for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kCount,
                         AggregateOp::kMin, AggregateOp::kMax}) {
    const std::vector<Value> chunk(257, identity_of(op));
    const auto payload = encode_chunk(chunk, op, true);
    EXPECT_EQ(payload.size(), sizeof(WireHeader)) << to_string(op);
    const auto view = parse_chunk(payload,
                                  static_cast<std::int64_t>(chunk.size()));
    EXPECT_EQ(view.value_count, 0) << to_string(op);
    check_round_trip(chunk, op);
  }
}

TEST(WireCodecTest, DisabledPolicyAlwaysShipsRaw) {
  const std::vector<Value> chunk(64, 0.0);  // maximally compressible
  const auto payload = encode_chunk(chunk, AggregateOp::kSum, false);
  EXPECT_EQ(payload.size(), chunk.size() * sizeof(Value));
  check_round_trip(chunk, AggregateOp::kSum, false);
}

TEST(WireCodecTest, SmallIntegerDenseChunkGoesNarrow) {
  // Fully dense but integer-valued: the uint32 form halves the wire.
  std::vector<Value> chunk(100);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<Value>(i % 9 + 1);
  }
  const auto payload = encode_chunk(chunk, AggregateOp::kSum, true);
  const auto view = parse_chunk(payload,
                                static_cast<std::int64_t>(chunk.size()));
  EXPECT_EQ(view.kind, WireKind::kDenseNarrow);
  EXPECT_EQ(payload.size(), sizeof(WireHeader) + chunk.size() * 4);
  check_round_trip(chunk, AggregateOp::kSum);
}

TEST(WireCodecTest, SparseNonIntegerChunkUsesWideRuns) {
  std::vector<Value> chunk(1000, 0.0);
  chunk[10] = 1.5;
  chunk[11] = -2.25;
  chunk[500] = 3.75;
  const auto payload = encode_chunk(chunk, AggregateOp::kSum, true);
  const auto view = parse_chunk(payload,
                                static_cast<std::int64_t>(chunk.size()));
  EXPECT_EQ(view.kind, WireKind::kRunsWide);
  ASSERT_EQ(view.runs.size(), 2u);  // [10,12) and [500,501)
  EXPECT_EQ(view.runs[0].offset, 10u);
  EXPECT_EQ(view.runs[0].length, 2u);
  EXPECT_EQ(view.value_count, 3);
  check_round_trip(chunk, AggregateOp::kSum);
}

TEST(WireCodecTest, NonIdentityValuesFailingNarrowStayExact) {
  // Values the uint32 form cannot represent: fractions, negatives, huge
  // magnitudes, and a bit-signed -0.0.
  std::vector<Value> chunk(64, 0.0);
  chunk[0] = 0.5;
  chunk[1] = -1.0;
  chunk[2] = 1e18;
  chunk[3] = -0.0;  // bitwise distinct from the SUM identity +0.0
  check_round_trip(chunk, AggregateOp::kSum);
}

TEST(WireCodecTest, MinMaxIdentitiesAreSkippedExactly) {
  std::vector<Value> chunk(128, identity_of(AggregateOp::kMin));
  chunk[7] = 3.0;
  chunk[8] = -std::numeric_limits<Value>::infinity();  // a real -inf datum
  check_round_trip(chunk, AggregateOp::kMin);
  std::vector<Value> max_chunk(128, identity_of(AggregateOp::kMax));
  max_chunk[100] = -7.0;
  check_round_trip(max_chunk, AggregateOp::kMax);
}

TEST(WireCodecTest, AdversarialDensitiesAroundThreshold) {
  // Sweep the non-identity fraction through the default 0.5 threshold;
  // whatever form wins, the round trip must be exact and the payload
  // never larger than raw.
  Xoshiro256ss rng(7);
  for (double density : {0.0, 0.05, 0.45, 0.4999, 0.5, 0.5001, 0.55, 1.0}) {
    std::vector<Value> chunk(512, 0.0);
    std::int64_t nonzero = 0;
    for (auto& v : chunk) {
      if (rng.next_double() < density) {
        v = static_cast<Value>(1 + rng.next_below(9));
        ++nonzero;
      }
    }
    check_round_trip(chunk, AggregateOp::kSum);
    const auto payload = encode_chunk(chunk, AggregateOp::kSum, true);
    EXPECT_LE(payload.size(), chunk.size() * sizeof(Value))
        << "density " << density << " nnz " << nonzero;
  }
}

TEST(WireCodecTest, TinyChunksNeverMasqueradeAsRaw) {
  // n = 1: any encoded form would be >= 8 bytes = raw size, so raw must
  // win even for the identity; n = 2: header alone ties at 8 < 16 only
  // when the chunk is compressible.
  const std::vector<Value> one{0.0};
  EXPECT_EQ(encode_chunk(one, AggregateOp::kSum, true).size(), sizeof(Value));
  check_round_trip(one, AggregateOp::kSum);
  const std::vector<Value> two{0.0, 0.0};
  const auto payload = encode_chunk(two, AggregateOp::kSum, true);
  EXPECT_EQ(payload.size(), sizeof(WireHeader));  // all-identity, 0 runs
  check_round_trip(two, AggregateOp::kSum);
}

TEST(WireCodecTest, SmallestFormWinsAtAnyDensity) {
  // 60% dense with non-integer values: no narrow form applies, and one
  // run of 60 wide values is the only form smaller than raw. No density
  // gate stands between the chunk and its smallest form.
  std::vector<Value> chunk(100, 0.0);
  for (std::size_t i = 0; i < 60; ++i) chunk[i] = 1.5;
  const auto payload = encode_chunk(chunk, AggregateOp::kSum, true);
  EXPECT_EQ(payload.size(),
            sizeof(WireHeader) + sizeof(WireRun) + 60 * sizeof(Value));
  EXPECT_LT(payload.size(), chunk.size() * sizeof(Value));
  EXPECT_EQ(parse_chunk(payload, 100).kind, WireKind::kRunsWide);
  check_round_trip(chunk, AggregateOp::kSum);
}

TEST(WireCodecTest, CombineMatchesScalarReferenceForAnyPool) {
  // Threaded combine must be bit-identical to the inline one, for dense
  // and run-encoded payloads alike.
  Xoshiro256ss rng(11);
  std::vector<Value> chunk(40'000, 0.0);
  for (auto& v : chunk) {
    if (rng.next_double() < 0.2) v = static_cast<Value>(1 + rng.next_below(9));
  }
  const auto payload = encode_chunk(chunk, AggregateOp::kSum, true);
  std::vector<Value> reference(chunk.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    reference[i] = static_cast<Value>(i % 13);
  }
  const std::vector<Value> base = reference;
  const std::int64_t updates_inline =
      combine_chunk(AggregateOp::kSum, reference, payload);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<Value> dst = base;
    const std::int64_t updates =
        combine_chunk(AggregateOp::kSum, dst, payload, &pool);
    EXPECT_EQ(updates, updates_inline);
    EXPECT_TRUE(bit_equal(dst, reference)) << "threads=" << threads;
  }
}

TEST(WireCodecTest, RoundTripThroughRawBytesMatchesEncode) {
  // A raw payload produced by hand (as the disabled-codec send path does)
  // must parse identically to an encoder-produced raw payload.
  std::vector<Value> chunk{1.0, 2.5, -3.0};
  const auto raw = bytes_of(chunk);
  const auto view = parse_chunk(raw, 3);
  EXPECT_EQ(view.kind, WireKind::kRaw);
  const auto decoded = decode_chunk(raw, 3, AggregateOp::kSum);
  EXPECT_TRUE(bit_equal(decoded, chunk));
}

}  // namespace
}  // namespace cubist
