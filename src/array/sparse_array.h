// SparseArray: the paper's chunk-offset compressed sparse format (§6).
//
// The array is divided into chunks. Each chunk stores only its non-zero
// cells: their positions, as row-major linear indices (offsets) relative to
// the chunk's own extents, and their values in offset order. This is the
// "chunk-offset compression" of Zhao et al. that the paper's experiments use
// for the input dataset, with a second form for dense chunks.
//
// A chunk holds at most kMaxChunkCells = 2^16 cells, a rule of the format
// that the constructor enforces, so an offset fits 16 bits. A chunk stores
// its positions in one of two forms, whichever is smaller: a list of one
// 16-bit offset per non-zero, or a bitmap of one bit per cell (a word per
// 64 cells). The bitmap is smaller when more than 1/16 of the chunk's cells
// are non-zero, as at the paper's 25% density; the form follows from the
// chunk's own non-zero count. Readers see ascending offsets either way
// through chunk_positions(), a batch at a time; only this module knows the
// bitmap's layout.
//
// A chunk stores its values in one of two forms as well. The coded form
// holds one 8-bit code per non-zero and the chunk's own dictionary of at
// most kMaxCodes values. The raw form holds one 8-byte value per non-zero.
// A chunk is coded whenever its values take at most kMaxCodes bit patterns,
// as generated inputs always do (values 1..9); a chunk of more distinct
// values stays raw rather than pay 2-byte codes and a dictionary beside its
// 8-byte values. Readers see one value per non-zero through chunk_values()
// either way. So a coded non-zero takes 3 bytes in a listed chunk, and one
// byte plus the chunk's bits in a bitmap chunk.
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

#include <array>
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

  /// A chunk's non-zero positions, in whichever form the chunk stores
  /// them; empty for an empty chunk. Valid while the array holds the chunk.
  /// The n-th offset in ascending order is the n-th non-zero, whose value
  /// is chunk_values()[n].
  class ChunkPositions {
   public:
    ChunkPositions() = default;

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    /// True when the chunk keeps a bit per cell, false when it keeps a list
    /// of offsets.
    bool bitmap() const { return !words_.empty(); }
    /// The offsets, ascending, in one vector.
    std::vector<Offset> to_vector() const;

    /// Reads the offsets a batch at a time (below).
    class Reader;

   private:
    friend class SparseArray;
    explicit ChunkPositions(std::span<const Offset> list)
        : list_(list), count_(list.size()) {}
    ChunkPositions(std::span<const std::uint64_t> words, std::size_t count)
        : words_(words), count_(count) {}

    std::span<const Offset> list_;
    std::span<const std::uint64_t> words_;
    std::size_t count_ = 0;
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
  /// offset lists or bitmaps, plus raw values or codes and dictionaries,
  /// counting shared chunks in full.
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
  /// is finalized. The chunk keeps a bitmap when it is smaller than the
  /// list, and is coded when its values take at most kMaxCodes bit
  /// patterns, else stored raw. Distinct chunks may be set concurrently.
  void set_chunk(std::int64_t chunk_id, std::vector<Offset> offsets,
                 std::vector<Value> values);

  /// set_chunk() for a producer that holds its positions as a bitmap and
  /// its values coded: bit b of bitmap[w] marks cell 64 w + b, and the n-th
  /// non-zero's value is dictionary[codes[n]]. The bitmap must hold
  /// ceil(volume / 64) words and mark no cell past the chunk's volume;
  /// there must be one code per marked cell, each below the dictionary's
  /// size, and at most kMaxCodes dictionary entries, none of them zero. A
  /// chunk whose list of offsets is smaller keeps the list instead.
  void set_coded_chunk(std::int64_t chunk_id,
                       std::vector<std::uint64_t> bitmap,
                       std::vector<Code> codes, std::vector<Value> dictionary);

  /// Sets chunk `chunk_id` to chunk `source_chunk` of `source` without
  /// copying it: both arrays then hold the same immutable chunk. The
  /// chunk's positions pass set_chunk()'s checks against this array's
  /// chunk geometry (a bitmap's size too, without decoding it), so it must
  /// number its cells row-major over the same extents. `source` may be
  /// read concurrently by other sharers.
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

  ChunkPositions chunk_positions(std::int64_t chunk_id) const {
    const ChunkRef& chunk = chunks_[static_cast<std::size_t>(chunk_id)];
    if (!chunk) return {};
    return chunk->bitmap.empty() ? ChunkPositions(chunk->offsets)
                                 : ChunkPositions(chunk->bitmap, chunk->size());
  }
  ChunkValues chunk_values(std::int64_t chunk_id) const {
    const ChunkRef& chunk = chunks_[static_cast<std::size_t>(chunk_id)];
    if (!chunk) return {};
    return chunk->codes.empty() ? ChunkValues(chunk->values)
                                : ChunkValues(chunk->codes, chunk->dictionary);
  }

 private:
  /// One form holds the positions: `offsets` (a list) or `bitmap`
  /// (ceil(volume / 64) words). One form holds the values: `values` (raw),
  /// or `codes` and `dictionary` (coded).
  struct Chunk {
    std::vector<Offset> offsets;
    std::vector<std::uint64_t> bitmap;
    std::vector<Value> values;
    std::vector<Code> codes;
    std::vector<Value> dictionary;

    /// The non-zero count.
    std::size_t size() const {
      return codes.empty() ? values.size() : codes.size();
    }
    std::size_t bytes() const {
      return offsets.size() * sizeof(Offset) +
             bitmap.size() * sizeof(std::uint64_t) +
             (values.size() + dictionary.size()) * sizeof(Value) +
             codes.size() * sizeof(Code);
    }
  };
  /// A set chunk; null for an empty one.
  using ChunkRef = std::shared_ptr<const Chunk>;

  /// Chunk grid coordinates and within-chunk offset of a global index.
  std::int64_t locate(const std::int64_t* index, Offset* offset_out) const;
  /// The checks every way of setting a chunk makes, on the id and the
  /// state; returns the chunk's volume.
  std::int64_t check_chunk(std::int64_t chunk_id) const;
  /// A chunk of non-zero `values` at ascending `offsets` in `volume`
  /// cells, in the smaller form of its positions, and coded if it can be.
  static ChunkRef make_chunk(std::vector<Offset> offsets,
                             std::vector<Value> values, std::int64_t volume);
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

/// Hands out the offsets of ascending cell ranges, a batch of at most
/// kBatchCells cells at a time, each with the rank (the index among the
/// chunk's non-zeros) of its first offset. A listed chunk's batch is a
/// span of its list; a bitmap chunk's is decoded into the reader.
class SparseArray::ChunkPositions::Reader {
 public:
  static constexpr std::int64_t kBatchCells = 1024;

  explicit Reader(const ChunkPositions& positions)
      : positions_(positions) {}

  /// Starts the cell range [lo, hi); lo must not precede the previous
  /// range's hi.
  void seek(std::int64_t lo, std::int64_t hi);
  /// The range's next batch of offsets, ascending; empty past its end.
  std::span<const Offset> next();
  /// The rank of the first offset the last next() returned.
  std::size_t rank() const { return rank_; }

 private:
  ChunkPositions positions_;
  /// The next cell to read, and the range's end.
  std::int64_t at_ = 0;
  std::int64_t hi_ = 0;
  /// The non-zeros before cell at_.
  std::size_t before_ = 0;
  std::size_t rank_ = 0;
  /// A bitmap batch's offsets. Decoding writes 8 entries a byte of
  /// bits, whatever its count, so the buffer has 8 to spare.
  std::array<Offset, kBatchCells + 8> buffer_;
};

}  // namespace cubist
