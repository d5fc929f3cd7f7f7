// ProcGrid: the paper's processor grid (§4).
//
// With p = 2^k processors, dimension i is partitioned 2^{k_i} ways
// (sum k_i = k). A processor's label is its coordinate vector; the *lead*
// processors along dimension i are those with coordinate 0 — when the
// algorithm aggregates along dimension i, results land on them, and only
// they participate in the rest of that subtree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "array/block.h"
#include "common/dimset.h"

namespace cubist {

class ProcGrid {
 public:
  /// `log_splits[d]` = k_d, so dimension d is split 2^{k_d} ways.
  explicit ProcGrid(std::vector<int> log_splits);

  int ndims() const { return static_cast<int>(log_splits_.size()); }
  /// Total processors p = 2^k.
  int size() const { return size_; }
  /// k = sum of the per-dimension exponents.
  int log_size() const { return log_size_; }
  const std::vector<int>& log_splits() const { return log_splits_; }
  /// Number of pieces along dimension d (2^{k_d}).
  std::int64_t splits(int d) const {
    return std::int64_t{1} << log_splits_[d];
  }
  std::vector<std::int64_t> splits_vector() const;

  /// Grid coordinates of a rank (row-major layout over the splits).
  std::vector<std::int64_t> coords_of(int rank) const;
  int rank_of(const std::vector<std::int64_t>& coords) const;

  /// Coordinate of `rank` along dimension d.
  std::int64_t coord(int rank, int d) const;

  /// True iff `rank` has coordinate 0 along dimension d (paper: a lead
  /// processor along d, the home of results aggregated along d).
  bool is_lead(int rank, int d) const { return coord(rank, d) == 0; }

  /// True iff `rank` is a lead along every dimension in `aggregated`,
  /// i.e. it holds the final values of a view lacking those dimensions.
  bool is_lead_for(int rank, DimSet aggregated) const;

  /// The 2^{k_d} ranks sharing all coordinates with `rank` except along
  /// dimension d, ordered by their coordinate along d (so element 0 is the
  /// lead). This is the reduction group for aggregating along d.
  std::vector<int> axis_group(int rank, int d) const;

  /// The block of the global array owned by `rank` (balanced split).
  BlockRange block(int rank,
                   const std::vector<std::int64_t>& global_extents) const;

  /// "2x2x2x1" rendering of the split counts.
  std::string to_string() const;

 private:
  std::vector<int> log_splits_;
  int size_ = 1;
  int log_size_ = 0;
  /// Row-major strides over the coordinate space.
  std::vector<std::int64_t> strides_;
};

}  // namespace cubist
