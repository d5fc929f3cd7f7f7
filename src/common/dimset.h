// DimSet: a subset of cube dimensions, the index type of the cube lattice.
//
// Every node of the data cube lattice, the prefix tree and the aggregation
// tree is a subset of {0, .., n-1}; we represent it as a 32-bit mask, which
// caps cubes at 32 dimensions (the lattice has 2^n nodes, so real cubes stop
// far earlier).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace cubist {

/// Maximum number of dimensions a cube may have.
inline constexpr int kMaxDims = 32;

/// An immutable-style set of dimension indices in [0, kMaxDims).
class DimSet {
 public:
  /// The empty set (the `all` scalar node of the cube lattice).
  constexpr DimSet() = default;

  /// The set {0, 1, .., n-1} (the root array of the aggregation tree).
  static constexpr DimSet full(int n) {
    return DimSet(n >= kMaxDims ? ~std::uint32_t{0}
                                : ((std::uint32_t{1} << n) - 1));
  }

  /// The singleton {dim}.
  static constexpr DimSet single(int dim) {
    return DimSet(std::uint32_t{1} << dim);
  }

  /// Builds a set from an explicit list of dimension indices.
  static DimSet of(std::initializer_list<int> dims) {
    DimSet s;
    for (int d : dims) s = s.with(d);
    return s;
  }

  /// Builds a set from a vector of dimension indices.
  static DimSet of(const std::vector<int>& dims) {
    DimSet s;
    for (int d : dims) s = s.with(d);
    return s;
  }

  /// Reconstructs a set from its raw mask (inverse of `mask()`).
  static constexpr DimSet from_mask(std::uint32_t mask) { return DimSet(mask); }

  constexpr bool contains(int dim) const {
    return (mask_ >> dim & 1u) != 0;
  }
  constexpr bool empty() const { return mask_ == 0; }
  int size() const { return __builtin_popcount(mask_); }
  constexpr std::uint32_t mask() const { return mask_; }

  /// This set plus {dim}.
  constexpr DimSet with(int dim) const {
    return DimSet(mask_ | (std::uint32_t{1} << dim));
  }
  /// This set minus {dim}.
  constexpr DimSet without(int dim) const {
    return DimSet(mask_ & ~(std::uint32_t{1} << dim));
  }

  constexpr DimSet union_with(DimSet o) const { return DimSet(mask_ | o.mask_); }
  constexpr DimSet intersect(DimSet o) const { return DimSet(mask_ & o.mask_); }
  constexpr DimSet minus(DimSet o) const { return DimSet(mask_ & ~o.mask_); }

  /// Complement with respect to the full set of `n` dimensions.
  constexpr DimSet complement(int n) const {
    return DimSet(~mask_ & full(n).mask_);
  }

  constexpr bool is_subset_of(DimSet o) const {
    return (mask_ & ~o.mask_) == 0;
  }

  /// Smallest dimension index in the set. Precondition: non-empty.
  int min_dim() const {
    CUBIST_CHECK(!empty(), "min_dim() of empty DimSet");
    return __builtin_ctz(mask_);
  }

  /// Largest dimension index in the set. Precondition: non-empty.
  int max_dim() const {
    CUBIST_CHECK(!empty(), "max_dim() of empty DimSet");
    return 31 - __builtin_clz(mask_);
  }

  /// The position of `dim` in dims(): the count of members below it.
  /// Precondition: `dim` is a member.
  int position_of(int dim) const {
    CUBIST_CHECK(dim >= 0 && dim < kMaxDims && contains(dim),
                 "dimension " << dim << " is not in " << to_string());
    return __builtin_popcount(mask_ & ((std::uint32_t{1} << dim) - 1));
  }

  /// The positions of `dims`' members in dims(), as a set: what a scan of
  /// this view's array drops to leave out `dims`, a subset.
  DimSet positions_of(DimSet dims) const {
    DimSet positions;
    for (int d : dims.dims()) positions = positions.with(position_of(d));
    return positions;
  }

  /// Dimension indices in ascending order.
  std::vector<int> dims() const {
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(size()));
    for (std::uint32_t m = mask_; m != 0; m &= m - 1) {
      out.push_back(__builtin_ctz(m));
    }
    return out;
  }

  constexpr bool operator==(const DimSet&) const = default;

  /// Orders sets by mask value; gives a stable total order for containers.
  constexpr bool operator<(DimSet o) const { return mask_ < o.mask_; }

  /// "{0,2,3}" style rendering; the empty set prints as "{}" (the `all` node).
  std::string to_string() const;

  /// Letter rendering used by the paper: {0,1} over 3 dims -> "AB",
  /// the empty set -> "all". Dimensions beyond 'Z' fall back to to_string().
  std::string to_letters() const;

 private:
  explicit constexpr DimSet(std::uint32_t mask) : mask_(mask) {}

  std::uint32_t mask_ = 0;
};

}  // namespace cubist
