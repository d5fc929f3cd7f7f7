#include "array/wire_codec.h"

#include <bit>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/thread_pool.h"

namespace cubist {
namespace {

// Combine work below this many cells (or runs) stays inline: the pool's
// dispatch cost would dwarf the arithmetic.
constexpr std::int64_t kMinCellsPerCombineStripe = 8192;
constexpr std::int64_t kMinRunsPerCombineStripe = 256;

std::uint64_t bits_of(Value v) { return std::bit_cast<std::uint64_t>(v); }

/// True when `v` round-trips bit-exactly through uint32 (the narrow wire
/// form). Truncation, negatives, -0.0, NaN and infinities all fail.
bool u32_exact(Value v) {
  if (!(v >= Value{0} &&
        v <= static_cast<Value>(std::numeric_limits<std::uint32_t>::max()))) {
    return false;
  }
  const auto u = static_cast<std::uint32_t>(v);
  return bits_of(static_cast<Value>(u)) == bits_of(v);
}

void append_bytes(std::vector<std::byte>& out, const void* src,
                  std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(src);
  out.insert(out.end(), p, p + bytes);
}

std::vector<std::byte> encode_raw(std::span<const Value> chunk) {
  std::vector<std::byte> out(chunk.size_bytes());
  if (!chunk.empty()) std::memcpy(out.data(), chunk.data(), out.size());
  return out;
}

Value load_wide(std::span<const std::byte> values, std::int64_t i) {
  Value v;
  std::memcpy(&v, values.data() + i * static_cast<std::int64_t>(sizeof(Value)),
              sizeof(Value));
  return v;
}

Value load_narrow(std::span<const std::byte> values, std::int64_t i) {
  std::uint32_t u;
  std::memcpy(
      &u, values.data() + i * static_cast<std::int64_t>(sizeof(std::uint32_t)),
      sizeof(std::uint32_t));
  return static_cast<Value>(u);
}

}  // namespace

std::vector<std::byte> encode_chunk(std::span<const Value> chunk,
                                    AggregateOp op, bool encode_wire) {
  const auto n = static_cast<std::int64_t>(chunk.size());
  CUBIST_CHECK(
      static_cast<std::uint64_t>(n) <= std::numeric_limits<std::uint32_t>::max(),
      "chunk of " << n << " cells exceeds the wire format's 32-bit indexing");
  const std::int64_t raw_bytes = n * static_cast<std::int64_t>(sizeof(Value));
  if (!encode_wire || n == 0) return encode_raw(chunk);

  // One analysis pass: run structure under the operator's bitwise identity,
  // and uint32-exactness of all cells / of the non-identity cells.
  const std::uint64_t identity_bits = bits_of(identity_of(op));
  std::vector<WireRun> runs;
  std::int64_t nonzero = 0;
  bool all_narrow = true;      // every cell, identity included
  bool values_narrow = true;   // non-identity cells only
  for (std::int64_t i = 0; i < n; ++i) {
    const Value v = chunk[i];
    if (bits_of(v) == identity_bits) {
      if (all_narrow && !u32_exact(v)) all_narrow = false;
      continue;
    }
    ++nonzero;
    if (values_narrow && !u32_exact(v)) values_narrow = all_narrow = false;
    if (!runs.empty() &&
        static_cast<std::int64_t>(runs.back().offset) +
                static_cast<std::int64_t>(runs.back().length) ==
            i) {
      ++runs.back().length;
    } else {
      runs.push_back({static_cast<std::uint32_t>(i), 1});
    }
  }

  const auto r = static_cast<std::int64_t>(runs.size());
  const std::int64_t header = static_cast<std::int64_t>(sizeof(WireHeader));
  const std::int64_t directory = r * static_cast<std::int64_t>(sizeof(WireRun));

  // Candidates in fixed preference order (sparser forms first); the
  // strictly-smaller-than-raw rule is what keeps raw payloads the unique
  // ones of size raw_bytes.
  WireKind best = WireKind::kRaw;
  std::int64_t best_bytes = raw_bytes;
  const auto consider = [&](WireKind kind, std::int64_t bytes, bool allowed) {
    if (allowed && bytes < best_bytes) {
      best = kind;
      best_bytes = bytes;
    }
  };
  consider(WireKind::kRunsNarrow, header + directory + nonzero * 4,
           values_narrow);
  consider(WireKind::kRunsWide, header + directory + nonzero * 8, true);
  consider(WireKind::kDenseNarrow, header + n * 4, all_narrow);
  if (best == WireKind::kRaw) return encode_raw(chunk);

  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(best_bytes));
  WireHeader hdr;
  hdr.kind = static_cast<std::uint8_t>(best);
  hdr.run_count = best == WireKind::kDenseNarrow
                      ? 0
                      : static_cast<std::uint32_t>(r);
  append_bytes(out, &hdr, sizeof(hdr));
  switch (best) {
    case WireKind::kDenseNarrow:
      for (std::int64_t i = 0; i < n; ++i) {
        const auto u = static_cast<std::uint32_t>(chunk[i]);
        append_bytes(out, &u, sizeof(u));
      }
      break;
    case WireKind::kRunsWide:
      append_bytes(out, runs.data(), static_cast<std::size_t>(directory));
      for (const WireRun& run : runs) {
        append_bytes(out, chunk.data() + run.offset,
                     static_cast<std::size_t>(run.length) * sizeof(Value));
      }
      break;
    case WireKind::kRunsNarrow:
      append_bytes(out, runs.data(), static_cast<std::size_t>(directory));
      for (const WireRun& run : runs) {
        for (std::uint32_t k = 0; k < run.length; ++k) {
          const auto u = static_cast<std::uint32_t>(chunk[run.offset + k]);
          append_bytes(out, &u, sizeof(u));
        }
      }
      break;
    case WireKind::kRaw:
      CUBIST_ASSERT(false, "raw is handled above");
  }
  CUBIST_ASSERT(static_cast<std::int64_t>(out.size()) == best_bytes,
                "encoded payload size mismatch");
  return out;
}

WireChunkView parse_chunk(std::span<const std::byte> payload,
                          std::int64_t elements) {
  CUBIST_CHECK(elements >= 0, "negative chunk element count");
  const std::int64_t raw_bytes =
      elements * static_cast<std::int64_t>(sizeof(Value));
  WireChunkView view;
  view.elements = elements;
  if (static_cast<std::int64_t>(payload.size()) == raw_bytes) {
    view.kind = WireKind::kRaw;
    view.value_count = elements;
    view.values = payload;
    return view;
  }
  CUBIST_CHECK(payload.size() >= sizeof(WireHeader),
               "wire payload shorter than its header ("
                   << payload.size() << " bytes for " << elements
                   << " cells)");
  WireHeader hdr;
  std::memcpy(&hdr, payload.data(), sizeof(hdr));
  const auto kind = static_cast<WireKind>(hdr.kind);
  CUBIST_CHECK(kind == WireKind::kDenseNarrow || kind == WireKind::kRunsWide ||
                   kind == WireKind::kRunsNarrow,
               "unknown wire kind " << int{hdr.kind});
  view.kind = kind;
  std::span<const std::byte> rest = payload.subspan(sizeof(WireHeader));

  if (kind == WireKind::kDenseNarrow) {
    CUBIST_CHECK(hdr.run_count == 0, "dense wire payload carries runs");
    CUBIST_CHECK(static_cast<std::int64_t>(rest.size()) == elements * 4,
                 "dense-narrow payload size mismatch");
    view.value_count = elements;
    view.values = rest;
    return view;
  }

  const auto r = static_cast<std::int64_t>(hdr.run_count);
  const std::int64_t directory = r * static_cast<std::int64_t>(sizeof(WireRun));
  CUBIST_CHECK(static_cast<std::int64_t>(rest.size()) >= directory,
               "run directory extends past the payload");
  view.runs = std::span<const WireRun>(
      reinterpret_cast<const WireRun*>(rest.data()),
      static_cast<std::size_t>(r));
  std::int64_t covered = 0;
  std::int64_t next_free = 0;
  for (const WireRun& run : view.runs) {
    CUBIST_CHECK(run.length >= 1, "empty run in wire payload");
    CUBIST_CHECK(static_cast<std::int64_t>(run.offset) >= next_free,
                 "wire runs out of order or overlapping");
    next_free = static_cast<std::int64_t>(run.offset) +
                static_cast<std::int64_t>(run.length);
    CUBIST_CHECK(next_free <= elements, "wire run exceeds the chunk");
    covered += static_cast<std::int64_t>(run.length);
  }
  const std::int64_t value_bytes =
      covered * (kind == WireKind::kRunsNarrow ? 4 : 8);
  CUBIST_CHECK(static_cast<std::int64_t>(rest.size()) == directory + value_bytes,
               "run-encoded payload size mismatch");
  view.value_count = covered;
  view.values = rest.subspan(static_cast<std::size_t>(directory));
  return view;
}

std::vector<Value> decode_chunk(std::span<const std::byte> payload,
                                std::int64_t elements, AggregateOp op) {
  const WireChunkView view = parse_chunk(payload, elements);
  std::vector<Value> out(static_cast<std::size_t>(elements), identity_of(op));
  switch (view.kind) {
    case WireKind::kRaw:
      if (elements > 0) {
        std::memcpy(out.data(), view.values.data(),
                    static_cast<std::size_t>(elements) * sizeof(Value));
      }
      break;
    case WireKind::kDenseNarrow:
      for (std::int64_t i = 0; i < elements; ++i) {
        out[static_cast<std::size_t>(i)] = load_narrow(view.values, i);
      }
      break;
    case WireKind::kRunsWide:
    case WireKind::kRunsNarrow: {
      const bool narrow = view.kind == WireKind::kRunsNarrow;
      std::int64_t cursor = 0;
      for (const WireRun& run : view.runs) {
        for (std::uint32_t k = 0; k < run.length; ++k, ++cursor) {
          out[run.offset + k] = narrow ? load_narrow(view.values, cursor)
                                       : load_wide(view.values, cursor);
        }
      }
      break;
    }
  }
  return out;
}

std::int64_t combine_chunk(AggregateOp op, std::span<Value> dst,
                           std::span<const std::byte> payload,
                           ThreadPool* pool) {
  const auto n = static_cast<std::int64_t>(dst.size());
  const WireChunkView view = parse_chunk(payload, n);
  Value* out = dst.data();

  // Every destination cell receives at most one combine, and cells are
  // disjoint across stripes, so the result is bit-identical for any worker
  // count and any stripe execution order.
  if (view.kind == WireKind::kRaw || view.kind == WireKind::kDenseNarrow) {
    const bool narrow = view.kind == WireKind::kDenseNarrow;
    const auto body = [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        combine(op, out[i],
                narrow ? load_narrow(view.values, i)
                       : load_wide(view.values, i));
      }
    };
    if (pool != nullptr && n >= 2 * kMinCellsPerCombineStripe) {
      pool->parallel_for(0, n, kMinCellsPerCombineStripe, body);
    } else {
      body(0, n);
    }
    return n;
  }

  const bool narrow = view.kind == WireKind::kRunsNarrow;
  // Value-section start index of each run (prefix sum of lengths).
  std::vector<std::int64_t> starts(view.runs.size() + 1, 0);
  for (std::size_t i = 0; i < view.runs.size(); ++i) {
    starts[i + 1] = starts[i] + static_cast<std::int64_t>(view.runs[i].length);
  }
  const auto body = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t ri = lo; ri < hi; ++ri) {
      const WireRun& run = view.runs[static_cast<std::size_t>(ri)];
      std::int64_t cursor = starts[static_cast<std::size_t>(ri)];
      for (std::uint32_t k = 0; k < run.length; ++k, ++cursor) {
        combine(op, out[run.offset + k],
                narrow ? load_narrow(view.values, cursor)
                       : load_wide(view.values, cursor));
      }
    }
  };
  const auto run_count = static_cast<std::int64_t>(view.runs.size());
  if (pool != nullptr && (view.value_count >= 2 * kMinCellsPerCombineStripe ||
                          run_count >= 2 * kMinRunsPerCombineStripe)) {
    pool->parallel_for(0, run_count, kMinRunsPerCombineStripe, body);
  } else {
    body(0, run_count);
  }
  return view.value_count;
}

}  // namespace cubist
