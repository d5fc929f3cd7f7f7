#include "core/cube_result.h"

#include "common/error.h"

namespace cubist {

CubeResult::CubeResult(std::vector<std::int64_t> sizes)
    : sizes_(std::move(sizes)) {
  CUBIST_CHECK(!sizes_.empty() && sizes_.size() <= kMaxDims,
               "dimension count out of range");
}

void CubeResult::put(DimSet view, DenseArray array) {
  CUBIST_CHECK(view.is_subset_of(DimSet::full(ndims())),
               "view out of lattice");
  std::vector<std::int64_t> expected;
  for (int d : view.dims()) {
    expected.push_back(sizes_[d]);
  }
  CUBIST_CHECK(array.shape().extents() == expected,
               "array shape does not match view " << view.to_string());
  views_.insert_or_assign(view.mask(), std::move(array));
}

const DenseArray& CubeResult::view(DimSet view) const {
  const auto it = views_.find(view.mask());
  CUBIST_CHECK(it != views_.end(),
               "view " << view.to_string() << " not materialized");
  return it->second;
}

DenseArray CubeResult::take(DimSet view) {
  auto it = views_.find(view.mask());
  CUBIST_CHECK(it != views_.end(),
               "view " << view.to_string() << " not materialized");
  DenseArray out = std::move(it->second);
  views_.erase(it);
  return out;
}

DenseArray& CubeResult::mutable_view(DimSet view) {
  const auto it = views_.find(view.mask());
  CUBIST_CHECK(it != views_.end(),
               "view " << view.to_string() << " not materialized");
  return it->second;
}

Value CubeResult::query(DimSet view_set,
                        const std::vector<std::int64_t>& coords) const {
  check_point(view_set, coords);
  return view(view_set).at(coords);
}

void CubeResult::check_point(DimSet view,
                             const std::vector<std::int64_t>& coords) const {
  CUBIST_CHECK(view.is_subset_of(DimSet::full(ndims())),
               "view out of lattice");
  const std::vector<int> dims = view.dims();
  CUBIST_CHECK(coords.size() == dims.size(),
               "coordinate count must match view dimensionality");
  for (std::size_t i = 0; i < dims.size(); ++i) {
    CUBIST_CHECK(coords[i] >= 0 && coords[i] < sizes_[dims[i]],
                 "coordinate " << coords[i] << " out of range on dimension "
                               << dims[i]);
  }
}

std::vector<DimSet> CubeResult::stored_views() const {
  std::vector<DimSet> out;
  out.reserve(views_.size());
  for (const auto& [mask, array] : views_) {
    out.push_back(DimSet::from_mask(mask));
  }
  return out;
}

}  // namespace cubist
