#include "core/partial_cube.h"

#include <utility>

#include "array/aggregate.h"
#include "common/error.h"
#include "core/tree_walk.h"
#include "lattice/cube_lattice.h"

namespace cubist {

PartialCube PartialCube::build(std::shared_ptr<const SparseArray> input,
                               std::vector<DimSet> views, BuildStats* stats) {
  CUBIST_CHECK(input != nullptr, "PartialCube needs an input array");
  const std::vector<std::int64_t> sizes = input->shape().extents();
  // The routing table rejects the root and views out of the lattice;
  // duplicates collapse into one flag in the table and the walk.
  AncestorTable routes = AncestorTable::build(CubeLattice(sizes), views);
  auto cube = std::make_shared<CubeResult>(sizes);
  TreeWalk<> walk(input->ndim(), views, AggregateOp::kSum, AggregateOptions{});
  for (auto& [mask, view] : walk.run(*input)) {
    finalize_view(AggregateOp::kSum, view);
    cube->put(DimSet::from_mask(mask), std::move(view));
  }
  if (stats != nullptr) *stats = walk.stats();
  return PartialCube(std::move(input), std::move(cube), std::move(routes));
}

PartialCube PartialCube::build(SparseArray input, std::vector<DimSet> views,
                               BuildStats* stats) {
  return build(std::make_shared<const SparseArray>(std::move(input)),
               std::move(views), stats);
}

PartialCube PartialCube::adopt(std::shared_ptr<const CubeResult> cube) {
  CUBIST_CHECK(cube != nullptr, "PartialCube needs a cube");
  const CubeLattice lattice(cube->sizes());
  std::vector<DimSet> views;
  for (DimSet view : lattice.all_views()) {
    if (view == DimSet::full(lattice.ndims())) continue;
    CUBIST_CHECK(cube->has(view),
                 "an adopted cube needs every proper view; it lacks "
                     << view.to_string());
    views.push_back(view);
  }
  AncestorTable routes = AncestorTable::build(lattice, views);
  return PartialCube(nullptr, std::move(cube), std::move(routes));
}

const std::shared_ptr<const SparseArray>& PartialCube::input_ptr() const {
  CUBIST_CHECK(input_ != nullptr,
               "an adopted cube has no input to answer the root view from "
               "or to re-plan from");
  return input_;
}

std::int64_t PartialCube::materialized_bytes() const {
  std::int64_t bytes = 0;
  for (DimSet view : views_->stored_views()) {
    bytes += views_->view(view).bytes();
  }
  return bytes;
}

Value PartialCube::query(DimSet view, const std::vector<std::int64_t>& coords,
                         std::int64_t* cells_scanned) const {
  return query_from(routes_.route(view), view, coords, cells_scanned);
}

Value PartialCube::query_from(std::optional<DimSet> from, DimSet view,
                              const std::vector<std::int64_t>& coords,
                              std::int64_t* cells_scanned) const {
  views_->check_point(view, coords);
  if (!from) {
    // Fall through to the sparse input: one pass over the non-zeros.
    const std::vector<int> dims = view.dims();
    Value total = 0;
    std::int64_t scanned = 0;
    input().for_each_nonzero([&](const std::int64_t* idx, Value v) {
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
  const DenseArray& source = views_->view(*from);
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
        base += coords[coord_index++] * source.shape().stride(pos);
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
  if (from) {
    CUBIST_CHECK(view.is_subset_of(*from),
                 "source " << from->to_string() << " does not cover view "
                           << view.to_string());
  }
  // Resolved before the output is allocated, so a root-view query on an
  // adopted cube fails without allocating the root.
  const SparseArray* input_array = from ? nullptr : &input();
  const DimSet source = from ? *from : root;
  std::vector<std::int64_t> extents;
  std::vector<int> kept;  // the view's positions among the source's dims
  for (int d : view.dims()) {
    extents.push_back(sizes()[d]);
    kept.push_back(source.position_of(d));
  }
  DenseArray out{Shape{extents}};
  const AggregationStats scan =
      from ? project(views_->view(*from), kept, &out)
           : project(*input_array, kept, &out);
  if (cells_scanned != nullptr) *cells_scanned = scan.cells_scanned;
  return out;
}

DenseArray PartialCube::materialize(DimSet view,
                                    std::int64_t* cells_scanned) const {
  return materialize_from(routes_.route(view), view, cells_scanned);
}

}  // namespace cubist
