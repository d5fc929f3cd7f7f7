// SparseArray: the paper's chunk-offset compressed sparse format (§6).
//
// The array is divided into chunks. Each chunk stores only its non-zero
// cells, as parallel vectors of (offset within the chunk, value); the offset
// is the row-major linear index relative to the chunk's own extents. This is
// exactly the "chunk-offset compression" of Zhao et al. that the paper's
// experiments use for the input dataset.
//
// A chunk holds at most kMaxChunkCells = 2^16 cells, a rule of the format
// that the constructor enforces, so an offset fits 16 bits. A chunk stores
// its values in one of two forms. The coded form holds one 8-bit code per
// non-zero and the chunk's own dictionary of at most kMaxCodes values, so a
// non-zero takes 3 bytes: a 2-byte offset and a 1-byte code. The raw form
// holds one 8-byte value per non-zero, so a non-zero takes 10 bytes. A
// chunk is coded whenever its values take at most kMaxCodes bit patterns,
// as generated inputs always do (values 1..9); a chunk of more distinct
// values, which may hold up to 2^16, stays raw rather than pay 2-byte codes
// and a dictionary beside its 8-byte values. Readers see one value per
// non-zero through chunk_values() either way.
//
// An array is filled either a whole chunk at a time through set_chunk()
// (read_sparse does this), set_coded_chunk() (the generators) or
// share_chunk() (extract_block), or a cell at a time through push(), and is
// then sealed with finalize(), which folds the pushed cells into their
// chunks and recounts nnz().
//
// A chunk is immutable once set: it is held by reference count, copying an
// array shares its chunks, share_chunk() hands one to another array, and
// the last array that holds a chunk frees it. Nothing writes a chunk after
// it is set (push() and finalize() build a new one), so arrays that share
// chunks can be read and dropped from any threads without locks. bytes()
// counts a shared chunk in every array that holds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "array/dense_array.h"
#include "array/shape.h"

namespace cubist {

class SparseArray {
 public:
  /// Offsets within a chunk are 16-bit: a chunk holds at most
  /// kMaxChunkCells cells.
  using Offset = std::uint16_t;
  static constexpr std::int64_t kMaxChunkCells = std::int64_t{1} << 16;
  /// A coded chunk's non-zero names its value by an index into the
  /// chunk's dictionary of at most kMaxCodes values.
  using Code = std::uint8_t;
  static constexpr std::size_t kMaxCodes = std::size_t{1} << 8;

  /// A chunk's values in offset order, in whichever form the chunk is
  /// stored; empty for an empty chunk. Valid while the array holds the
  /// chunk.
  class ChunkValues {
   public:
    ChunkValues() = default;
    explicit ChunkValues(std::span<const Value> raw) : raw_(raw) {}
    ChunkValues(std::span<const Code> codes, std::span<const Value> dictionary)
        : codes_(codes), dictionary_(dictionary) {}

    std::size_t size() const { return coded() ? codes_.size() : raw_.size(); }
    bool coded() const { return !codes_.empty(); }
    Value operator[](std::size_t n) const {
      return coded() ? dictionary_[codes_[n]] : raw_[n];
    }
    /// The values, decoded into one vector.
    std::vector<Value> to_vector() const {
      std::vector<Value> values(size());
      for (std::size_t n = 0; n < values.size(); ++n) values[n] = (*this)[n];
      return values;
    }
    /// The raw form's values; empty when the chunk is coded.
    std::span<const Value> raw() const { return raw_; }
    /// The coded form's codes and dictionary; empty when the chunk is raw.
    std::span<const Code> codes() const { return codes_; }
    std::span<const Value> dictionary() const { return dictionary_; }

   private:
    std::span<const Value> raw_;
    std::span<const Code> codes_;
    std::span<const Value> dictionary_;
  };

  /// An empty sparse array with the given global shape, chunked by
  /// `chunk_extents` (clipped at the array boundary). Throws
  /// InvalidArgument when a chunk would hold more than kMaxChunkCells
  /// cells.
  SparseArray(Shape shape, std::vector<std::int64_t> chunk_extents);

  /// Compresses a dense array; cells equal to 0 are dropped.
  static SparseArray from_dense(const DenseArray& dense,
                                std::vector<std::int64_t> chunk_extents);

  const Shape& shape() const { return shape_; }
  int ndim() const { return shape_.ndim(); }
  const std::vector<std::int64_t>& chunk_extents() const {
    return chunk_extents_;
  }
  /// Shape of the chunk grid (number of chunks along each dimension).
  const Shape& chunk_grid() const { return chunk_grid_; }
  std::int64_t num_chunks() const { return chunk_grid_.size(); }

  /// Non-zero count, recounted from the chunks by finalize().
  std::int64_t nnz() const { return nnz_; }
  /// Fraction of cells that are non-zero (the paper's "sparsity" knob).
  double density() const {
    return static_cast<double>(nnz_) / static_cast<double>(shape_.size());
  }
  /// Heap footprint of the chunks' entries, recounted by finalize():
  /// offsets, plus raw values or codes and dictionaries, counting shared
  /// chunks in full.
  std::int64_t bytes() const { return bytes_; }

  /// Appends a non-zero cell. Cells may arrive in any order; `finalize()`
  /// sorts each chunk and rejects duplicates. Zero values are dropped
  /// silently.
  void push(const std::int64_t* index, Value value);
  void push(const std::vector<std::int64_t>& index, Value value) {
    CUBIST_CHECK(static_cast<int>(index.size()) == ndim(),
                 "index rank mismatch");
    push(index.data(), value);
  }

  /// Fills chunk `chunk_id` (row-major over the chunk grid) with its
  /// non-zeros, replacing whatever it held. `offsets` are row-major within
  /// the chunk's own clipped extents; they must ascend strictly and stay
  /// below the chunk's volume, and every value must be non-zero. Throws
  /// InvalidArgument otherwise, or when the id is out of range or the array
  /// is finalized. The chunk is coded when its values take at most
  /// kMaxCodes bit patterns, else stored raw. Distinct chunks may be set
  /// concurrently.
  void set_chunk(std::int64_t chunk_id, std::vector<Offset> offsets,
                 std::vector<Value> values);

  /// set_chunk() for a producer that already holds its values coded: the
  /// n-th non-zero's value is dictionary[codes[n]]. Besides set_chunk()'s
  /// checks, there must be one code per offset, each below the dictionary's
  /// size, and at most kMaxCodes dictionary entries, none of them zero.
  void set_coded_chunk(std::int64_t chunk_id, std::vector<Offset> offsets,
                       std::vector<Code> codes, std::vector<Value> dictionary);

  /// Sets chunk `chunk_id` to chunk `source_chunk` of `source` without
  /// copying it: both arrays then hold the same immutable chunk. The
  /// chunk passes set_chunk()'s checks against this array's chunk
  /// geometry, so it must number its cells row-major over the same
  /// extents. `source` may be read concurrently by other sharers.
  void share_chunk(std::int64_t chunk_id, const SparseArray& source,
                   std::int64_t source_chunk);

  /// Folds the cells push() appended into new chunks (sorted, rejecting
  /// duplicates) and recounts nnz(); call once after the last fill.
  void finalize();

  /// Invokes fn(index, value) for every non-zero, in chunk order.
  /// `index` points at ndim() global coordinates, valid during the call.
  void for_each_nonzero(
      const std::function<void(const std::int64_t*, Value)>& fn) const;

  /// Decompresses to a dense array (test/debug aid).
  DenseArray to_dense() const;

  // --- chunk-level access, used by the fast aggregation kernel ---

  /// Extents of the chunk at chunk-grid coordinates `chunk_coords`
  /// (interior chunks get `chunk_extents()`, boundary chunks are clipped).
  std::vector<std::int64_t> chunk_shape_at(
      const std::vector<std::int64_t>& chunk_coords) const;

  /// Global coordinates of the chunk's origin cell.
  std::vector<std::int64_t> chunk_base(
      const std::vector<std::int64_t>& chunk_coords) const;

  std::span<const Offset> chunk_offsets(std::int64_t chunk_id) const {
    const ChunkRef& chunk = chunks_[static_cast<std::size_t>(chunk_id)];
    return chunk ? std::span<const Offset>(chunk->offsets)
                 : std::span<const Offset>();
  }
  ChunkValues chunk_values(std::int64_t chunk_id) const {
    const ChunkRef& chunk = chunks_[static_cast<std::size_t>(chunk_id)];
    if (!chunk) return {};
    return chunk->codes.empty() ? ChunkValues(chunk->values)
                                : ChunkValues(chunk->codes, chunk->dictionary);
  }

 private:
  /// One form holds the values: `values` (raw), or `codes` and
  /// `dictionary` (coded).
  struct Chunk {
    std::vector<Offset> offsets;
    std::vector<Value> values;
    std::vector<Code> codes;
    std::vector<Value> dictionary;

    std::size_t bytes() const {
      return offsets.size() * sizeof(Offset) +
             (values.size() + dictionary.size()) * sizeof(Value) +
             codes.size() * sizeof(Code);
    }
  };
  /// A set chunk; null for an empty one.
  using ChunkRef = std::shared_ptr<const Chunk>;

  /// Chunk grid coordinates and within-chunk offset of a global index.
  std::int64_t locate(const std::int64_t* index, Offset* offset_out) const;
  /// The checks every way of setting a chunk makes: the id, the state, and
  /// `offsets` against the chunk's geometry.
  void check_chunk(std::int64_t chunk_id,
                   std::span<const Offset> offsets) const;
  /// A chunk of non-zero `values`, coded if it can be.
  static ChunkRef make_chunk(std::vector<Offset> offsets,
                             std::vector<Value> values);
  /// Stores a validated chunk, dropping cells pushed to it before.
  void store_chunk(std::int64_t chunk_id, ChunkRef chunk);

  Shape shape_;
  std::vector<std::int64_t> chunk_extents_;
  Shape chunk_grid_;
  std::vector<ChunkRef> chunks_;
  /// Cells push() appended, per chunk, until finalize() folds them in;
  /// empty unless push() was called.
  std::vector<Chunk> pushed_;
  std::int64_t nnz_ = 0;
  std::int64_t bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace cubist
