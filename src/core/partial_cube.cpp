#include "core/partial_cube.h"

#include <algorithm>
#include <utility>

#include "array/aggregate.h"
#include "common/error.h"
#include "common/mathutil.h"
#include "lattice/cube_lattice.h"

namespace cubist {
namespace {

std::int64_t view_cells(const std::vector<std::int64_t>& sizes, DimSet view) {
  std::int64_t cells = 1;
  for (int d : view.dims()) {
    cells *= sizes[d];
  }
  return cells;
}

/// Positions of `child`'s dimensions within `parent`'s dimension list.
std::vector<int> kept_positions(DimSet parent, DimSet child) {
  const std::vector<int> parent_dims = parent.dims();
  std::vector<int> kept;
  for (int pos = 0; pos < static_cast<int>(parent_dims.size()); ++pos) {
    if (child.contains(parent_dims[pos])) kept.push_back(pos);
  }
  return kept;
}

}  // namespace

PartialCube PartialCube::build(std::shared_ptr<const SparseArray> input,
                               std::vector<DimSet> views, BuildStats* stats) {
  CUBIST_CHECK(input != nullptr, "PartialCube needs an input array");
  const std::vector<std::int64_t> sizes = input->shape().extents();
  const int n = input->ndim();
  const DimSet root = DimSet::full(n);
  // Deduplicate; the routing table also rejects the root and views out of
  // the lattice.
  std::sort(views.begin(), views.end());
  views.erase(std::unique(views.begin(), views.end()), views.end());
  PartialCube cube(std::move(input), sizes,
                   AncestorTable::build(CubeLattice(sizes), views));
  BuildStats totals;

  // Order by descending size so ancestors exist first.
  std::sort(views.begin(), views.end(), [&](DimSet a, DimSet b) {
    const std::int64_t ca = view_cells(sizes, a);
    const std::int64_t cb = view_cells(sizes, b);
    if (ca != cb) return ca > cb;
    return a.mask() < b.mask();
  });

  for (DimSet view : views) {
    std::vector<std::int64_t> extents;
    for (int d : view.dims()) {
      extents.push_back(sizes[d]);
    }
    DenseArray array{Shape{extents}};
    // Smallest already-materialized strict superset, else the input.
    std::optional<DimSet> parent;
    for (const auto& [mask, built] : cube.views_) {
      const DimSet candidate = DimSet::from_mask(mask);
      if (view.is_subset_of(candidate) && view != candidate &&
          (!parent ||
           view_cells(sizes, candidate) < view_cells(sizes, *parent))) {
        parent = candidate;
      }
    }
    AggregationStats scan;
    if (parent) {
      scan = project(cube.views_.at(parent->mask()),
                     kept_positions(*parent, view), &array);
    } else {
      scan = project(*cube.input_, kept_positions(root, view), &array);
    }
    totals.cells_scanned += scan.cells_scanned;
    totals.updates += scan.updates;
    totals.written_bytes += array.bytes();
    cube.views_.emplace(view.mask(), std::move(array));
  }
  // Peak accounting: every materialized view stays resident by design.
  // The shared input is deliberately NOT counted — it exists once no
  // matter how many cube generations a re-plan cycle builds.
  totals.peak_live_bytes = cube.materialized_bytes();
  if (stats != nullptr) {
    *stats = totals;
  }
  return cube;
}

PartialCube PartialCube::build(SparseArray input, std::vector<DimSet> views,
                               BuildStats* stats) {
  return build(std::make_shared<const SparseArray>(std::move(input)),
               std::move(views), stats);
}

std::vector<DimSet> PartialCube::materialized_views() const {
  std::vector<DimSet> out;
  out.reserve(views_.size());
  for (const auto& [mask, array] : views_) {
    out.push_back(DimSet::from_mask(mask));
  }
  return out;
}

std::int64_t PartialCube::materialized_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& [mask, array] : views_) {
    bytes += array.bytes();
  }
  return bytes;
}

const DenseArray& PartialCube::view(DimSet view) const {
  const auto it = views_.find(view.mask());
  CUBIST_CHECK(it != views_.end(),
               "view " << view.to_string() << " not materialized");
  return it->second;
}

Value PartialCube::query(DimSet view, const std::vector<std::int64_t>& coords,
                         std::int64_t* cells_scanned) const {
  return query_from(routes_.route(view), view, coords, cells_scanned);
}

Value PartialCube::query_from(std::optional<DimSet> from, DimSet view,
                              const std::vector<std::int64_t>& coords,
                              std::int64_t* cells_scanned) const {
  CUBIST_CHECK(view.is_subset_of(DimSet::full(ndims())), "view out of lattice");
  CUBIST_CHECK(static_cast<int>(coords.size()) == view.size(),
               "coordinate count must match view dimensionality");
  if (!from) {
    // Fall through to the sparse input: one pass over the non-zeros.
    const std::vector<int> dims = view.dims();
    Value total = 0;
    std::int64_t scanned = 0;
    input_->for_each_nonzero([&](const std::int64_t* idx, Value v) {
      ++scanned;
      for (std::size_t i = 0; i < dims.size(); ++i) {
        if (idx[dims[i]] != coords[i]) return;
      }
      total += v;
    });
    if (cells_scanned != nullptr) *cells_scanned = scanned;
    return total;
  }

  CUBIST_CHECK(view.is_subset_of(*from),
               "source " << from->to_string() << " does not cover view "
                         << view.to_string());
  const auto it = views_.find(from->mask());
  CUBIST_CHECK(it != views_.end(),
               "source " << from->to_string() << " not materialized");
  const DenseArray& source = it->second;
  if (*from == view) {
    if (cells_scanned != nullptr) *cells_scanned = 1;
    return source.at(coords);
  }
  // Aggregate the source over its free dimensions at the fixed coords.
  const std::vector<int> source_dims = from->dims();
  const int m = static_cast<int>(source_dims.size());
  std::vector<int> free_positions;
  std::int64_t base = 0;
  {
    std::size_t coord_index = 0;
    for (int pos = 0; pos < m; ++pos) {
      if (view.contains(source_dims[pos])) {
        const std::int64_t c = coords[coord_index++];
        CUBIST_CHECK(c >= 0 && c < source.shape().extent(pos),
                     "coordinate out of range");
        base += c * source.shape().stride(pos);
      } else {
        free_positions.push_back(pos);
      }
    }
  }
  // Odometer over the free dimensions.
  Value total = 0;
  std::int64_t scanned = 0;
  std::vector<std::int64_t> free_index(free_positions.size(), 0);
  while (true) {
    std::int64_t offset = base;
    for (std::size_t i = 0; i < free_positions.size(); ++i) {
      offset += free_index[i] * source.shape().stride(free_positions[i]);
    }
    total += source[offset];
    ++scanned;
    // Advance.
    std::size_t d = free_positions.size();
    while (d > 0) {
      --d;
      if (++free_index[d] < source.shape().extent(free_positions[d])) {
        break;
      }
      free_index[d] = 0;
      if (d == 0) {
        if (cells_scanned != nullptr) *cells_scanned = scanned;
        return total;
      }
    }
    if (free_positions.empty()) {
      if (cells_scanned != nullptr) *cells_scanned = scanned;
      return total;
    }
  }
}

DenseArray PartialCube::materialize_from(std::optional<DimSet> from,
                                         DimSet view,
                                         std::int64_t* cells_scanned) const {
  const DimSet root = DimSet::full(ndims());
  CUBIST_CHECK(view.is_subset_of(root), "view out of lattice");
  std::vector<std::int64_t> extents;
  for (int d : view.dims()) {
    extents.push_back(sizes_[d]);
  }
  DenseArray out{Shape{extents}};
  AggregationStats scan;
  if (from) {
    CUBIST_CHECK(view.is_subset_of(*from),
                 "source " << from->to_string() << " does not cover view "
                           << view.to_string());
    const auto it = views_.find(from->mask());
    CUBIST_CHECK(it != views_.end(),
                 "source " << from->to_string() << " not materialized");
    scan = project(it->second, kept_positions(*from, view), &out);
  } else {
    scan = project(*input_, kept_positions(root, view), &out);
  }
  if (cells_scanned != nullptr) *cells_scanned = scan.cells_scanned;
  return out;
}

DenseArray PartialCube::materialize(DimSet view,
                                    std::int64_t* cells_scanned) const {
  return materialize_from(routes_.route(view), view, cells_scanned);
}

}  // namespace cubist
