// Synthetic dataset generators (DESIGN.md §2: substitution for the paper's
// datasets, which are characterized only by shape and sparsity level).
//
// All generators are *partition-invariant*: whether a cell is populated and
// its value depend only on (seed, global cell index) through a stateless
// hash, so every processor grid slicing of the same spec sees the same
// global array — the parallel results can be compared bit-exactly against
// the sequential cube. Values are small integers (1..9) stored as doubles;
// double sums of small integers are exact and order-independent.
//
// Generation fills the array chunk by chunk, one task per chunk on
// ThreadPool::global() (under the minimpi runtime, within the calling
// rank's share of it). Each task writes only its own chunk, so the output
// is the same for any pool size. A task decides its chunk a 64-bit mask
// word at a time: a word holds 64 / L whole rows of L <= 32 cells, or up
// to 64 cells of one longer row. Each cell's keep test sets one bit with
// no branch on its hash, and only the kept cells' values are hashed.
// Under the uniform rule a row runs from the innermost dimension the
// chunk does not span whole, as the array does, to the last (their cells
// have consecutive global indices), so a chunk that spans its trailing
// dimensions whole is one row. The threshold is computed once per spec,
// and the keep tests run eight lanes at a time on CPUs with AVX-512DQ,
// else on a scalar loop; a CPU check picks the path once, at start-up,
// and no setting does. Under the Zipf skew a row is one dimension long,
// its outer dimensions' weights are multiplied once per row, and its keep
// tests run on the scalar loop.
#pragma once

#include <cstdint>
#include <vector>

#include "array/block.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"

namespace cubist {

/// Specification of a uniform hash-sparse dataset.
struct SparseSpec {
  std::vector<std::int64_t> sizes;
  /// Fraction of cells that are non-zero — the paper's "sparsity level"
  /// knob (their 25%, 10%, 5%).
  double density = 0.25;
  std::uint64_t seed = 1;
  /// Chunk extents of the chunk-offset format; empty = default_chunks().
  /// A chunk holds at most SparseArray::kMaxChunkCells cells.
  std::vector<std::int64_t> chunk_extents;
  /// Zipf skew of the non-zero distribution per dimension; 0 = uniform.
  /// With theta > 0, low coordinates are denser (clustered data), still
  /// partition-invariant and with expected density ~= `density`.
  double zipf_theta = 0.0;
};

/// min(16, extent) cells per dimension, then halved in the outermost
/// dimensions, dimension 0 first, until the chunk holds at most
/// SparseArray::kMaxChunkCells = 2^16 = 16^4 cells, the format's cap.
/// Shapes of up to 4 dimensions keep 16 cells per dimension; a larger
/// shape gets enough chunks to generate and scan on every thread, with its
/// inner rows kept long.
std::vector<std::int64_t> default_chunks(
    const std::vector<std::int64_t>& sizes);

/// The whole array, in global coordinates.
SparseArray generate_sparse_global(const SparseSpec& spec);

/// One processor's block, in local coordinates (extents = block.extents()),
/// chunked like the global array. The block must lie inside spec.sizes.
SparseArray generate_sparse_block(const SparseSpec& spec,
                                  const BlockRange& block);

/// Dense random array with values 0..9 (0 with probability 1 - density).
DenseArray generate_dense(const std::vector<std::int64_t>& sizes,
                          double density, std::uint64_t seed);

/// Extracts a rectangular block of `global` into a block-local sparse
/// array (used for slicing a generated global array across ranks and for
/// the tiling extension). The block must lie inside the array. Source
/// chunks that miss the block are skipped; one that is exactly a
/// destination chunk is shared with the result, not copied (the result
/// keeps it alive after `global` is gone), and the rest are decoded cell
/// by cell.
SparseArray extract_block(const SparseArray& global, const BlockRange& block,
                          std::vector<std::int64_t> chunk_extents);

}  // namespace cubist
