#include "minimpi/proc_grid.h"

#include <sstream>

#include "common/error.h"
#include "common/mathutil.h"

namespace cubist {

ProcGrid::ProcGrid(std::vector<int> log_splits)
    : log_splits_(std::move(log_splits)) {
  CUBIST_CHECK(!log_splits_.empty(), "empty grid");
  for (int k : log_splits_) {
    CUBIST_CHECK(k >= 0 && k < 30, "bad split exponent " << k);
    log_size_ += k;
  }
  CUBIST_CHECK(log_size_ < 30, "grid too large");
  size_ = 1 << log_size_;
  strides_.assign(log_splits_.size(), 1);
  std::int64_t stride = 1;
  for (int d = ndims() - 1; d >= 0; --d) {
    strides_[d] = stride;
    stride *= splits(d);
  }
}

std::vector<std::int64_t> ProcGrid::splits_vector() const {
  std::vector<std::int64_t> out(static_cast<std::size_t>(ndims()));
  for (int d = 0; d < ndims(); ++d) {
    out[d] = splits(d);
  }
  return out;
}

std::vector<std::int64_t> ProcGrid::coords_of(int rank) const {
  CUBIST_CHECK(rank >= 0 && rank < size_, "rank out of range");
  std::vector<std::int64_t> coords(static_cast<std::size_t>(ndims()));
  std::int64_t rest = rank;
  for (int d = 0; d < ndims(); ++d) {
    coords[d] = rest / strides_[d];
    rest -= coords[d] * strides_[d];
  }
  return coords;
}

int ProcGrid::rank_of(const std::vector<std::int64_t>& coords) const {
  CUBIST_CHECK(static_cast<int>(coords.size()) == ndims(), "rank mismatch");
  std::int64_t rank = 0;
  for (int d = 0; d < ndims(); ++d) {
    CUBIST_CHECK(coords[d] >= 0 && coords[d] < splits(d),
                 "coordinate out of range in dim " << d);
    rank += coords[d] * strides_[d];
  }
  return static_cast<int>(rank);
}

std::int64_t ProcGrid::coord(int rank, int d) const {
  CUBIST_CHECK(rank >= 0 && rank < size_, "rank out of range");
  CUBIST_CHECK(d >= 0 && d < ndims(), "dimension out of range");
  return (rank / strides_[d]) % splits(d);
}

bool ProcGrid::is_lead_for(int rank, DimSet aggregated) const {
  for (int d : aggregated.dims()) {
    if (!is_lead(rank, d)) return false;
  }
  return true;
}

std::vector<int> ProcGrid::axis_group(int rank, int d) const {
  std::vector<std::int64_t> coords = coords_of(rank);
  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(splits(d)));
  for (std::int64_t c = 0; c < splits(d); ++c) {
    coords[d] = c;
    group.push_back(rank_of(coords));
  }
  return group;
}

BlockRange ProcGrid::block(
    int rank, const std::vector<std::int64_t>& global_extents) const {
  CUBIST_CHECK(static_cast<int>(global_extents.size()) == ndims(),
               "rank mismatch");
  return block_for(global_extents, splits_vector(), coords_of(rank));
}

std::string ProcGrid::to_string() const {
  std::ostringstream out;
  for (int d = 0; d < ndims(); ++d) {
    if (d) out << 'x';
    out << splits(d);
  }
  return out.str();
}

}  // namespace cubist
