// The uniform rule's keep test, up to 64 consecutive cells at a time
// (io/generators.h). Internal to src/io: generators.cpp runs it, and the
// generator tests compare its two paths. A CPU check picks the path once,
// at start-up: the AVX-512DQ version where the CPU and its OS run
// AVX-512F and AVX-512DQ, the scalar loop everywhere else.
#pragma once

#include <cstdint>

namespace cubist::keep_bits {

/// Bit i is set when cell_hash(seed, first + i) < threshold, for
/// i < count, 1 <= count <= 64; the bits from count up are clear. One
/// hash per cell and no branch on it: the reference, and the path of CPUs
/// without AVX-512DQ.
std::uint64_t scalar(std::uint64_t seed, std::uint64_t threshold,
                     std::uint64_t first, int count);

/// The same bits from eight-lane hashes (`vpmullq`) and unsigned compares
/// into a lane mask. Only where has_avx512dq() holds.
std::uint64_t avx512(std::uint64_t seed, std::uint64_t threshold,
                     std::uint64_t first, int count);

/// Whether this CPU and its OS run AVX-512F and AVX-512DQ. Safe to call
/// from a static initializer.
bool has_avx512dq();

}  // namespace cubist::keep_bits
