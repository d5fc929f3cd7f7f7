// Adaptive wire codec for reduction payloads (the "sparsity-aware" half of
// the pipelined communication engine; see docs/PERFORMANCE.md,
// "Communication engine").
//
// A partial aggregate block travelling up the Figure-5 reduction tree is
// logically a dense run of Values, but for sparse inputs most of its cells
// still hold the operator's identity. The codec encodes each chunk in the
// cheapest of four self-describing forms:
//
//   kRaw         headerless; payload is exactly elements * sizeof(Value)
//                bytes. The fallback that makes the codec lossless for
//                arbitrary data AND caps the wire at the dense volume.
//   kDenseNarrow header + one uint32 per cell (every cell, identity
//                included, is an exact small non-negative integer — the
//                common case for this repository's integer-exact SUM/COUNT
//                views; see DESIGN.md §2).
//   kRunsWide    header + run directory + raw Values of the non-identity
//                cells only (identity cells are skipped on the wire).
//   kRunsNarrow  kRunsWide with uint32 values.
//
// Self-description without per-message framing overhead: the receiver
// always knows the logical element count of a chunk (both sides of a
// reduction walk the same chunk schedule), and an encoded payload is only
// ever emitted when it is STRICTLY smaller than the raw form — so
// `payload.size() == elements * sizeof(Value)` <=> raw, and anything
// smaller starts with a WireHeader. This guarantees, per message,
// wire bytes <= logical bytes, which is what lets the schedule verifier
// certify measured wire volume against the dense Lemma-1 closed form.
//
// Identity detection is BITWISE (the exact bit pattern of
// identity_of(op)), so decode(encode(x)) reproduces x bit-for-bit and
// combining an encoded payload performs the same per-cell arithmetic as
// combining the raw block, in the same order. The one documented caveat:
// a raw combine of +0.0 into a -0.0 accumulator would flip the sign bit,
// while run-skipping leaves -0.0 alone; cells equal under ==, one bit
// apart. The repository's integer-valued non-negative data never
// manufactures -0.0.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "array/aggregate_op.h"

namespace cubist {

class ThreadPool;

/// Wire forms; kRaw never carries a header.
enum class WireKind : std::uint8_t {
  kRaw = 0,
  kDenseNarrow = 1,
  kRunsWide = 2,
  kRunsNarrow = 3,
};

/// One maximal run of consecutive non-identity cells within a chunk.
struct WireRun {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

/// The 8-byte header of every non-raw payload.
struct WireHeader {
  std::uint8_t kind = 0;
  std::uint8_t reserved[3] = {0, 0, 0};
  std::uint32_t run_count = 0;
};
static_assert(sizeof(WireHeader) == 8, "wire header must stay 8 bytes");
static_assert(sizeof(WireRun) == 8, "run directory entries must stay 8 bytes");

/// Parsed, zero-copy description of an encoded payload.
struct WireChunkView {
  WireKind kind = WireKind::kRaw;
  /// Logical cell count of the chunk.
  std::int64_t elements = 0;
  /// Values carried on the wire (== elements for dense kinds, the
  /// non-identity count for run kinds).
  std::int64_t value_count = 0;
  /// Run directory (empty for dense kinds); offsets/lengths in cells.
  std::span<const WireRun> runs;
  /// The value section: value_count values, 4 or 8 bytes each.
  std::span<const std::byte> values;
};

/// Encodes one chunk under `op`'s identity. The result is either exactly
/// `chunk.size() * sizeof(Value)` raw bytes, or a strictly smaller
/// header-tagged payload (the smallest of the four forms). With
/// `encode_wire` off always raw, so each send's wire bytes equal its
/// logical bytes exactly.
std::vector<std::byte> encode_chunk(std::span<const Value> chunk,
                                    AggregateOp op, bool encode_wire);

/// Parses (and validates) a payload produced by encode_chunk for a chunk
/// of `elements` logical cells. Zero-copy: the view aliases `payload`.
WireChunkView parse_chunk(std::span<const std::byte> payload,
                          std::int64_t elements);

/// Materializes the chunk: identity cells restored from `op`. Mostly a
/// test/debug convenience — the reduce path combines without this.
std::vector<Value> decode_chunk(std::span<const std::byte> payload,
                                std::int64_t elements, AggregateOp op);

/// dst[i] <- dst[i] (op) chunk[i] straight off the wire, skipping identity
/// cells of run-encoded payloads (they are combine no-ops). Returns the
/// number of combine updates applied — the receiver's virtual-clock
/// charge. When `pool` is non-null the elementwise work is striped over
/// it in fixed disjoint ranges under the pool's per-rank budget
/// (bit-identical for any worker count).
std::int64_t combine_chunk(AggregateOp op, std::span<Value> dst,
                           std::span<const std::byte> payload,
                           ThreadPool* pool = nullptr);

}  // namespace cubist
