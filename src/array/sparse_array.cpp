#include "array/sparse_array.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

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

/// A bitmap's words: one bit per cell, 64 cells a word.
constexpr std::int64_t kWordCells = 64;

std::size_t words_for(std::int64_t volume) {
  return static_cast<std::size_t>(ceil_div(volume, kWordCells));
}

/// True when a bitmap of `volume` cells takes fewer bytes than a list of
/// `count` offsets: when more than 1/16 of the cells are non-zero.
bool bitmap_is_smaller(std::size_t count, std::int64_t volume) {
  return words_for(volume) * sizeof(std::uint64_t) <
         count * sizeof(SparseArray::Offset);
}

std::vector<std::uint64_t> to_bitmap(std::span<const SparseArray::Offset> list,
                                     std::int64_t volume) {
  std::vector<std::uint64_t> words(words_for(volume));
  for (const SparseArray::Offset offset : list) {
    words[offset / kWordCells] |= std::uint64_t{1} << (offset % kWordCells);
  }
  return words;
}

/// Each byte value's set bits, ascending, as 16-bit lanes (the rest 0),
/// and their count; 32 bytes, so an entry never straddles a cache line.
struct alignas(32) ByteBits {
  std::array<std::uint16_t, 8> at;
  std::uint32_t count;
};
constexpr std::array<ByteBits, 256> kByteBits = [] {
  std::array<ByteBits, 256> table{};
  for (int byte = 0; byte < 256; ++byte) {
    ByteBits& bits = table[static_cast<std::size_t>(byte)];
    for (int bit = 0; bit < 8; ++bit) {
      if ((byte >> bit) & 1) {
        bits.at[bits.count++] = static_cast<std::uint16_t>(bit);
      }
    }
  }
  return table;
}();

/// Writes the offsets of cells [lo, hi) that `words` marks to `out`,
/// ascending, and returns their count. A byte of bits writes all 8 lanes
/// of its table entry, raised by the byte's first cell four lanes to a
/// 64-bit add (no lane carries: an offset fits 16 bits), and advances by
/// its count, with no branch on the bits; so `out` needs 8 entries past
/// the count.
std::size_t decode_bits(std::span<const std::uint64_t> words, std::int64_t lo,
                        std::int64_t hi, SparseArray::Offset* out) {
  constexpr std::uint64_t kLanes = 0x0001000100010001ULL;
  const std::int64_t first = lo / kWordCells;
  const std::int64_t last = (hi - 1) / kWordCells;
  std::uint64_t base = static_cast<std::uint64_t>(first * kWordCells) * kLanes;
  std::size_t count = 0;
  for (std::int64_t w = first; w <= last; ++w) {
    std::uint64_t word = words[static_cast<std::size_t>(w)];
    if (w == first) word &= ~std::uint64_t{0} << (lo % kWordCells);
    if (w == last) word &= ~std::uint64_t{0} >> (63 - (hi - 1) % kWordCells);
    for (int byte = 0; byte < 8; ++byte, word >>= 8, base += 8 * kLanes) {
      const ByteBits& bits = kByteBits[word & 0xff];
      std::array<std::uint64_t, 2> lanes;
      std::memcpy(lanes.data(), bits.at.data(), sizeof lanes);
      lanes[0] += base;
      lanes[1] += base;
      std::memcpy(out + count, lanes.data(), sizeof lanes);
      count += bits.count;
    }
  }
  return count;
}

/// The number of cells in [lo, hi) that `words` marks.
std::size_t count_bits(std::span<const std::uint64_t> words, std::int64_t lo,
                       std::int64_t hi) {
  if (lo >= hi) return 0;
  const std::int64_t first = lo / kWordCells;
  const std::int64_t last = (hi - 1) / kWordCells;
  std::size_t count = 0;
  for (std::int64_t w = first; w <= last; ++w) {
    std::uint64_t word = words[static_cast<std::size_t>(w)];
    if (w == first) word &= ~std::uint64_t{0} << (lo % kWordCells);
    if (w == last) word &= ~std::uint64_t{0} >> (63 - (hi - 1) % kWordCells);
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

/// Frees a vector's storage, not only its elements.
template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

void check_list(std::int64_t chunk_id, std::span<const SparseArray::Offset> list,
                std::int64_t volume) {
  for (std::size_t i = 1; i < list.size(); ++i) {
    CUBIST_CHECK(list[i - 1] < list[i],
                 "chunk " << chunk_id << ": offsets do not ascend strictly");
  }
  CUBIST_CHECK(list.empty() || list.back() < volume,
               "chunk " << chunk_id << ": offset past its " << volume
                        << " cells");
}

/// Checks a bitmap's size and that it marks no cell past `volume`, from its
/// last word alone.
void check_bitmap(std::int64_t chunk_id, std::span<const std::uint64_t> words,
                  std::int64_t volume) {
  CUBIST_CHECK(words.size() == words_for(volume),
               "chunk " << chunk_id << ": bitmap of " << words.size()
                        << " words for " << volume << " cells");
  const std::int64_t tail = volume % kWordCells;
  CUBIST_CHECK(tail == 0 || words.back() >> tail == 0,
               "chunk " << chunk_id << ": bitmap marks a cell past its "
                        << volume << " cells");
}

}  // namespace

std::vector<SparseArray::Offset> SparseArray::ChunkPositions::to_vector()
    const {
  std::vector<Offset> offsets;
  offsets.reserve(count_);
  Reader reader(*this);
  reader.seek(0, kMaxChunkCells);
  for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
    offsets.insert(offsets.end(), batch.begin(), batch.end());
  }
  return offsets;
}

void SparseArray::ChunkPositions::Reader::seek(std::int64_t lo,
                                               std::int64_t hi) {
  CUBIST_DCHECK(lo >= at_, "position ranges must ascend");
  const ChunkPositions& p = positions_;
  if (p.bitmap()) {
    const std::int64_t cells = std::ssize(p.words_) * kWordCells;
    lo = std::min(lo, cells);
    hi = std::min(hi, cells);
    before_ += count_bits(p.words_, at_, lo);
  } else {
    before_ = static_cast<std::size_t>(
        std::lower_bound(p.list_.begin() + static_cast<std::ptrdiff_t>(before_),
                         p.list_.end(), lo) -
        p.list_.begin());
  }
  at_ = lo;
  hi_ = hi;
}

std::span<const SparseArray::Offset> SparseArray::ChunkPositions::Reader::next() {
  const ChunkPositions& p = positions_;
  if (!p.bitmap()) {
    if (at_ >= hi_) return {};
    const auto begin = p.list_.begin() + static_cast<std::ptrdiff_t>(before_);
    const auto end = std::lower_bound(begin, p.list_.end(), hi_);
    rank_ = before_;
    before_ = static_cast<std::size_t>(end - p.list_.begin());
    at_ = hi_;
    return {begin, end};
  }
  while (at_ < hi_) {
    const std::int64_t end = std::min(hi_, at_ + kBatchCells);
    const std::size_t count = decode_bits(p.words_, at_, end, buffer_.data());
    rank_ = before_;
    before_ += count;
    at_ = end;
    if (count > 0) return {buffer_.data(), count};
  }
  return {};
}

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

std::int64_t SparseArray::check_chunk(std::int64_t chunk_id) const {
  CUBIST_CHECK(chunk_id >= 0 && chunk_id < num_chunks(),
               "chunk id " << chunk_id << " out of range");
  CUBIST_CHECK(!finalized_, "chunk set after finalize");
  std::vector<std::int64_t> coords(static_cast<std::size_t>(ndim()));
  chunk_grid_.unravel(chunk_id, coords.data());
  return checked_product(chunk_shape_at(coords));
}

SparseArray::ChunkRef SparseArray::make_chunk(std::vector<Offset> offsets,
                                              std::vector<Value> values,
                                              std::int64_t volume) {
  if (offsets.empty()) return nullptr;
  Chunk chunk;
  if (bitmap_is_smaller(offsets.size(), volume)) {
    chunk.bitmap = to_bitmap(offsets, volume);
  } else {
    chunk.offsets = std::move(offsets);
  }
  if (!encode(values, chunk.codes, chunk.dictionary)) {
    release(chunk.codes);
    release(chunk.dictionary);
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
  const std::int64_t volume = check_chunk(chunk_id);
  check_list(chunk_id, offsets, volume);
  CUBIST_CHECK(offsets.size() == values.size(),
               "chunk " << chunk_id << ": offset and value counts differ");
  for (const Value value : values) {
    CUBIST_CHECK(value != Value{0}, "chunk " << chunk_id << ": zero value");
  }
  store_chunk(chunk_id,
              make_chunk(std::move(offsets), std::move(values), volume));
}

void SparseArray::set_coded_chunk(std::int64_t chunk_id,
                                  std::vector<std::uint64_t> bitmap,
                                  std::vector<Code> codes,
                                  std::vector<Value> dictionary) {
  const std::int64_t volume = check_chunk(chunk_id);
  check_bitmap(chunk_id, bitmap, volume);
  std::size_t count = 0;
  for (const std::uint64_t word : bitmap) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  CUBIST_CHECK(count == codes.size(),
               "chunk " << chunk_id << ": " << count << " cells marked and "
                        << codes.size() << " codes");
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
  if (count == 0) {
    store_chunk(chunk_id, nullptr);
    return;
  }
  Chunk chunk{{}, {}, {}, std::move(codes), std::move(dictionary)};
  if (bitmap_is_smaller(count, volume)) {
    chunk.bitmap = std::move(bitmap);
  } else {
    chunk.offsets = ChunkPositions(bitmap, count).to_vector();
  }
  store_chunk(chunk_id, std::make_shared<const Chunk>(std::move(chunk)));
}

void SparseArray::share_chunk(std::int64_t chunk_id, const SparseArray& source,
                              std::int64_t source_chunk) {
  CUBIST_CHECK(source_chunk >= 0 && source_chunk < source.num_chunks(),
               "source chunk id " << source_chunk << " out of range");
  const std::int64_t volume = check_chunk(chunk_id);
  // The chunk passed every check when it was set in `source`, its list's
  // ascent among them; its positions must fit this array's chunk, which
  // the last offset or the last bitmap word decides.
  const ChunkRef& chunk = source.chunks_[static_cast<std::size_t>(source_chunk)];
  if (chunk && !chunk->bitmap.empty()) {
    check_bitmap(chunk_id, chunk->bitmap, volume);
  } else if (chunk) {
    CUBIST_CHECK(chunk->offsets.back() < volume,
                 "chunk " << chunk_id << ": offset past its " << volume
                          << " cells");
  }
  store_chunk(chunk_id, chunk);
}

void SparseArray::finalize() {
  std::vector<std::int64_t> coords(static_cast<std::size_t>(ndim()));
  for (std::size_t c = 0; c < pushed_.size(); ++c) {
    Chunk& cells = pushed_[c];
    if (cells.offsets.empty()) continue;
    // Pushed cells join the chunk's set ones in a new chunk: the set chunk
    // may be shared, so it is never edited.
    const auto id = static_cast<std::int64_t>(c);
    if (chunks_[c]) {
      const std::vector<Offset> offsets = chunk_positions(id).to_vector();
      cells.offsets.insert(cells.offsets.begin(), offsets.begin(),
                           offsets.end());
      const std::vector<Value> values = chunk_values(id).to_vector();
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
    chunk_grid_.unravel(id, coords.data());
    chunks_[c] = make_chunk(std::move(cells.offsets), std::move(cells.values),
                            checked_product(chunk_shape_at(coords)));
  }
  pushed_ = std::vector<Chunk>();
  nnz_ = 0;
  bytes_ = 0;
  for (const ChunkRef& chunk : chunks_) {
    if (!chunk) continue;
    nnz_ += static_cast<std::int64_t>(chunk->size());
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
    const std::vector<Offset> offsets = chunk_positions(chunk_id).to_vector();
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
