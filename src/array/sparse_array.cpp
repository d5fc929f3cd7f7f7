#include "array/sparse_array.h"

#include <algorithm>

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
                              std::span<const Offset> offsets,
                              std::span<const Value> values) const {
  CUBIST_CHECK(chunk_id >= 0 && chunk_id < num_chunks(),
               "chunk id " << chunk_id << " out of range");
  CUBIST_CHECK(!finalized_, "chunk set after finalize");
  CUBIST_CHECK(offsets.size() == values.size(),
               "chunk " << chunk_id << ": offset and value counts differ");
  std::vector<std::int64_t> coords(static_cast<std::size_t>(ndim()));
  chunk_grid_.unravel(chunk_id, coords.data());
  const std::int64_t volume = checked_product(chunk_shape_at(coords));
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    CUBIST_CHECK(i == 0 || offsets[i - 1] < offsets[i],
                 "chunk " << chunk_id << ": offsets do not ascend strictly");
    CUBIST_CHECK(values[i] != Value{0}, "chunk " << chunk_id << ": zero value");
  }
  CUBIST_CHECK(offsets.empty() || offsets.back() < volume,
               "chunk " << chunk_id << ": offset past its " << volume
                        << " cells");
}

void SparseArray::store_chunk(std::int64_t chunk_id, ChunkRef chunk) {
  const auto c = static_cast<std::size_t>(chunk_id);
  chunks_[c] = std::move(chunk);
  if (!pushed_.empty()) pushed_[c] = Chunk{};
}

void SparseArray::set_chunk(std::int64_t chunk_id, std::vector<Offset> offsets,
                            std::vector<Value> values) {
  check_chunk(chunk_id, offsets, values);
  store_chunk(chunk_id, offsets.empty()
                            ? nullptr
                            : std::make_shared<const Chunk>(Chunk{
                                  std::move(offsets), std::move(values)}));
}

void SparseArray::share_chunk(std::int64_t chunk_id, const SparseArray& source,
                              std::int64_t source_chunk) {
  CUBIST_CHECK(source_chunk >= 0 && source_chunk < source.num_chunks(),
               "source chunk id " << source_chunk << " out of range");
  check_chunk(chunk_id, source.chunk_offsets(source_chunk),
              source.chunk_values(source_chunk));
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
      cells.values.insert(cells.values.begin(), set->values.begin(),
                          set->values.end());
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
    chunks_[c] = std::make_shared<const Chunk>(std::move(cells));
  }
  pushed_ = std::vector<Chunk>();
  nnz_ = 0;
  for (std::int64_t c = 0; c < num_chunks(); ++c) {
    nnz_ += static_cast<std::int64_t>(chunk_offsets(c).size());
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
