// BlockRange: a rectangular sub-block of a global array, the unit of data
// distribution in the parallel algorithm (each processor owns one block of
// the original array).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "array/shape.h"

namespace cubist {

/// Half-open per-dimension ranges [lo, hi).
class BlockRange {
 public:
  BlockRange() = default;
  BlockRange(std::vector<std::int64_t> lo, std::vector<std::int64_t> hi);

  /// The block of every cell of `shape`.
  static BlockRange whole(const Shape& shape) {
    return BlockRange(std::vector<std::int64_t>(shape.extents().size(), 0),
                      shape.extents());
  }

  int ndim() const { return static_cast<int>(lo_.size()); }
  std::int64_t lo(int d) const { return lo_[d]; }
  std::int64_t hi(int d) const { return hi_[d]; }
  std::int64_t extent(int d) const { return hi_[d] - lo_[d]; }

  /// Extents as a vector (shape of the local array).
  std::vector<std::int64_t> extents() const;
  Shape local_shape() const { return Shape(extents()); }
  std::int64_t size() const;

  bool contains(const std::int64_t* global_index) const;

  /// Translates a global index into block-local coordinates.
  void to_local(const std::int64_t* global_index,
                std::int64_t* local_index) const;

  bool operator==(const BlockRange&) const = default;

  std::string to_string() const;

 private:
  std::vector<std::int64_t> lo_;
  std::vector<std::int64_t> hi_;
};

/// [lo, hi) of piece `part` when `extent` is split into `parts` balanced
/// pieces (first `extent % parts` pieces are one larger). With divisible
/// extents — the paper's setting — all pieces are equal.
std::pair<std::int64_t, std::int64_t> split_range(std::int64_t extent,
                                                  std::int64_t parts,
                                                  std::int64_t part);

/// The block owned by grid position `coords` when dimension d is split into
/// `splits[d]` pieces.
BlockRange block_for(const std::vector<std::int64_t>& global_extents,
                     const std::vector<std::int64_t>& splits,
                     const std::vector<std::int64_t>& coords);

}  // namespace cubist
