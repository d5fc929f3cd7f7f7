#include "array/sparse_array.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/mathutil.h"

namespace cubist {
namespace {

Shape make_chunk_grid(const Shape& shape,
                      const std::vector<std::int64_t>& chunk_extents) {
  CUBIST_CHECK(static_cast<int>(chunk_extents.size()) == shape.ndim(),
               "chunk rank mismatch");
  std::vector<std::int64_t> grid(chunk_extents.size());
  for (int d = 0; d < shape.ndim(); ++d) {
    CUBIST_CHECK(chunk_extents[d] > 0, "chunk extent must be positive");
    grid[d] = ceil_div(shape.extent(d), chunk_extents[d]);
  }
  return Shape(std::move(grid));
}

/// Codes `values` against a dictionary of their distinct bit patterns, in
/// the order each first occurs; false, with `codes` and `dictionary` left
/// partial, at a pattern past the kMaxCodes-th. Patterns are compared
/// bitwise, as the wire codec's identity test compares values, so values
/// one ulp apart get two codes and a NaN keeps its payload. A pattern is
/// looked up in an open-addressed table of 2 x kMaxCodes slots, so at most
/// half full, in which 0 marks a free slot: only +0.0 has that pattern,
/// and no chunk holds a zero.
bool encode(std::span<const Value> values,
            std::vector<SparseArray::Code>& codes,
            std::vector<Value>& dictionary) {
  constexpr std::size_t kSlots = 2 * SparseArray::kMaxCodes;
  constexpr int kShift = 64 - std::countr_zero(kSlots);
  std::array<std::uint64_t, kSlots> keys{};
  std::array<SparseArray::Code, kSlots> slot_codes{};
  codes.resize(values.size());
  for (std::size_t n = 0; n < values.size(); ++n) {
    const auto bits = std::bit_cast<std::uint64_t>(values[n]);
    auto slot = static_cast<std::size_t>(
        ((bits ^ (bits >> 32)) * 0x9e3779b97f4a7c15ULL) >> kShift);
    while (keys[slot] != bits && keys[slot] != 0) {
      slot = (slot + 1) % kSlots;
    }
    if (keys[slot] == 0) {
      if (dictionary.size() == SparseArray::kMaxCodes) return false;
      keys[slot] = bits;
      slot_codes[slot] = static_cast<SparseArray::Code>(dictionary.size());
      dictionary.push_back(values[n]);
    }
    codes[n] = slot_codes[slot];
  }
  return true;
}

}  // namespace

SparseArray::SparseArray(Shape shape, std::vector<std::int64_t> chunk_extents)
    : shape_(std::move(shape)),
      chunk_extents_(std::move(chunk_extents)),
      chunk_grid_(make_chunk_grid(shape_, chunk_extents_)),
      chunks_(static_cast<std::size_t>(chunk_grid_.size())) {
  const std::int64_t chunk_volume = checked_product(chunk_extents_);
  CUBIST_CHECK(chunk_volume <= kMaxChunkCells,
               "chunk of " << chunk_volume << " cells exceeds the "
                           << kMaxChunkCells << "-cell cap");
}

SparseArray SparseArray::from_dense(const DenseArray& dense,
                                    std::vector<std::int64_t> chunk_extents) {
  SparseArray sparse(dense.shape(), std::move(chunk_extents));
  std::vector<std::int64_t> index(static_cast<std::size_t>(dense.ndim()), 0);
  for (std::int64_t linear = 0; linear < dense.size(); ++linear) {
    dense.shape().unravel(linear, index.data());
    if (dense[linear] != Value{0}) {
      sparse.push(index.data(), dense[linear]);
    }
  }
  sparse.finalize();
  return sparse;
}

std::int64_t SparseArray::locate(const std::int64_t* index,
                                 Offset* offset_out) const {
  std::int64_t chunk_linear = 0;
  std::int64_t offset = 0;
  for (int d = 0; d < ndim(); ++d) {
    CUBIST_DCHECK(index[d] >= 0 && index[d] < shape_.extent(d),
                  "index out of bounds in dim " << d);
    const std::int64_t chunk_coord = index[d] / chunk_extents_[d];
    const std::int64_t local = index[d] - chunk_coord * chunk_extents_[d];
    chunk_linear += chunk_coord * chunk_grid_.stride(d);
    // Boundary chunks use their own (clipped) extents for the offset basis.
    const std::int64_t this_extent =
        std::min(chunk_extents_[d],
                 shape_.extent(d) - chunk_coord * chunk_extents_[d]);
    offset = offset * this_extent + local;
  }
  *offset_out = static_cast<Offset>(offset);
  return chunk_linear;
}

void SparseArray::push(const std::int64_t* index, Value value) {
  CUBIST_CHECK(!finalized_, "push after finalize");
  if (value == Value{0}) return;
  Offset offset;
  const std::int64_t chunk_id = locate(index, &offset);
  if (pushed_.empty()) pushed_.resize(chunks_.size());
  Chunk& cells = pushed_[static_cast<std::size_t>(chunk_id)];
  cells.offsets.push_back(offset);
  cells.values.push_back(value);
}

void SparseArray::check_chunk(std::int64_t chunk_id,
                              std::span<const Offset> offsets) const {
  CUBIST_CHECK(chunk_id >= 0 && chunk_id < num_chunks(),
               "chunk id " << chunk_id << " out of range");
  CUBIST_CHECK(!finalized_, "chunk set after finalize");
  std::vector<std::int64_t> coords(static_cast<std::size_t>(ndim()));
  chunk_grid_.unravel(chunk_id, coords.data());
  const std::int64_t volume = checked_product(chunk_shape_at(coords));
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    CUBIST_CHECK(offsets[i - 1] < offsets[i],
                 "chunk " << chunk_id << ": offsets do not ascend strictly");
  }
  CUBIST_CHECK(offsets.empty() || offsets.back() < volume,
               "chunk " << chunk_id << ": offset past its " << volume
                        << " cells");
}

SparseArray::ChunkRef SparseArray::make_chunk(std::vector<Offset> offsets,
                                              std::vector<Value> values) {
  if (offsets.empty()) return nullptr;
  Chunk chunk{std::move(offsets), {}, {}, {}};
  if (!encode(values, chunk.codes, chunk.dictionary)) {
    chunk.codes = {};
    chunk.dictionary = {};
    chunk.values = std::move(values);
  }
  return std::make_shared<const Chunk>(std::move(chunk));
}

void SparseArray::store_chunk(std::int64_t chunk_id, ChunkRef chunk) {
  const auto c = static_cast<std::size_t>(chunk_id);
  chunks_[c] = std::move(chunk);
  if (!pushed_.empty()) pushed_[c] = Chunk{};
}

void SparseArray::set_chunk(std::int64_t chunk_id, std::vector<Offset> offsets,
                            std::vector<Value> values) {
  check_chunk(chunk_id, offsets);
  CUBIST_CHECK(offsets.size() == values.size(),
               "chunk " << chunk_id << ": offset and value counts differ");
  for (const Value value : values) {
    CUBIST_CHECK(value != Value{0}, "chunk " << chunk_id << ": zero value");
  }
  store_chunk(chunk_id, make_chunk(std::move(offsets), std::move(values)));
}

void SparseArray::set_coded_chunk(std::int64_t chunk_id,
                                  std::vector<Offset> offsets,
                                  std::vector<Code> codes,
                                  std::vector<Value> dictionary) {
  check_chunk(chunk_id, offsets);
  CUBIST_CHECK(offsets.size() == codes.size(),
               "chunk " << chunk_id << ": offset and code counts differ");
  CUBIST_CHECK(dictionary.size() <= kMaxCodes,
               "chunk " << chunk_id << ": dictionary of " << dictionary.size()
                        << " values exceeds " << kMaxCodes);
  for (const Value value : dictionary) {
    CUBIST_CHECK(value != Value{0},
                 "chunk " << chunk_id << ": zero dictionary value");
  }
  Code top = 0;
  for (const Code code : codes) top = std::max(top, code);
  CUBIST_CHECK(codes.empty() || top < dictionary.size(),
               "chunk " << chunk_id << ": code " << int{top}
                        << " past its dictionary of " << dictionary.size()
                        << " values");
  store_chunk(chunk_id,
              offsets.empty()
                  ? nullptr
                  : std::make_shared<const Chunk>(
                        Chunk{std::move(offsets), {}, std::move(codes),
                              std::move(dictionary)}));
}

void SparseArray::share_chunk(std::int64_t chunk_id, const SparseArray& source,
                              std::int64_t source_chunk) {
  CUBIST_CHECK(source_chunk >= 0 && source_chunk < source.num_chunks(),
               "source chunk id " << source_chunk << " out of range");
  // The chunk's values passed their checks when it was set in `source`.
  check_chunk(chunk_id, source.chunk_offsets(source_chunk));
  store_chunk(chunk_id, source.chunks_[static_cast<std::size_t>(source_chunk)]);
}

void SparseArray::finalize() {
  for (std::size_t c = 0; c < pushed_.size(); ++c) {
    Chunk& cells = pushed_[c];
    if (cells.offsets.empty()) continue;
    // Pushed cells join the chunk's set ones in a new chunk: the set chunk
    // may be shared, so it is never edited.
    if (const ChunkRef& set = chunks_[c]) {
      cells.offsets.insert(cells.offsets.begin(), set->offsets.begin(),
                           set->offsets.end());
      const std::vector<Value> values =
          chunk_values(static_cast<std::int64_t>(c)).to_vector();
      cells.values.insert(cells.values.begin(), values.begin(), values.end());
    }
    if (!std::is_sorted(cells.offsets.begin(), cells.offsets.end())) {
      // Cells can arrive out of chunk order (e.g. extract_block walks the
      // source's chunks, not the destination's); restore the canonical
      // ascending-offset layout.
      std::vector<std::size_t> order(cells.offsets.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return cells.offsets[a] < cells.offsets[b];
      });
      Chunk sorted_chunk;
      sorted_chunk.offsets.reserve(cells.offsets.size());
      sorted_chunk.values.reserve(cells.values.size());
      for (std::size_t i : order) {
        sorted_chunk.offsets.push_back(cells.offsets[i]);
        sorted_chunk.values.push_back(cells.values[i]);
      }
      cells = std::move(sorted_chunk);
    }
    CUBIST_CHECK(std::adjacent_find(cells.offsets.begin(),
                                    cells.offsets.end()) == cells.offsets.end(),
                 "chunk " << c << " has a duplicate offset");
    chunks_[c] = make_chunk(std::move(cells.offsets), std::move(cells.values));
  }
  pushed_ = std::vector<Chunk>();
  nnz_ = 0;
  bytes_ = 0;
  for (const ChunkRef& chunk : chunks_) {
    if (!chunk) continue;
    nnz_ += std::ssize(chunk->offsets);
    bytes_ += static_cast<std::int64_t>(chunk->bytes());
  }
  finalized_ = true;
}

std::vector<std::int64_t> SparseArray::chunk_shape_at(
    const std::vector<std::int64_t>& chunk_coords) const {
  std::vector<std::int64_t> extents(static_cast<std::size_t>(ndim()));
  for (int d = 0; d < ndim(); ++d) {
    extents[d] = std::min(chunk_extents_[d],
                          shape_.extent(d) - chunk_coords[d] * chunk_extents_[d]);
  }
  return extents;
}

std::vector<std::int64_t> SparseArray::chunk_base(
    const std::vector<std::int64_t>& chunk_coords) const {
  std::vector<std::int64_t> base(static_cast<std::size_t>(ndim()));
  for (int d = 0; d < ndim(); ++d) {
    base[d] = chunk_coords[d] * chunk_extents_[d];
  }
  return base;
}

void SparseArray::for_each_nonzero(
    const std::function<void(const std::int64_t*, Value)>& fn) const {
  std::vector<std::int64_t> chunk_coords(static_cast<std::size_t>(ndim()), 0);
  std::vector<std::int64_t> index(static_cast<std::size_t>(ndim()), 0);
  for (std::int64_t chunk_id = 0; chunk_id < num_chunks(); ++chunk_id) {
    chunk_grid_.unravel(chunk_id, chunk_coords.data());
    const auto base = chunk_base(chunk_coords);
    const auto extents = chunk_shape_at(chunk_coords);
    const Shape local_shape{extents};
    const auto offsets = chunk_offsets(chunk_id);
    const auto values = chunk_values(chunk_id);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      local_shape.unravel(static_cast<std::int64_t>(offsets[i]), index.data());
      for (int d = 0; d < ndim(); ++d) {
        index[d] += base[d];
      }
      fn(index.data(), values[i]);
    }
  }
}

DenseArray SparseArray::to_dense() const {
  DenseArray dense(shape_);
  for_each_nonzero([&](const std::int64_t* index, Value value) {
    dense[shape_.linear_index(index)] += value;
  });
  return dense;
}

}  // namespace cubist
