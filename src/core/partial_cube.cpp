#include "core/partial_cube.h"

#include <utility>

#include "array/aggregate.h"
#include "common/error.h"
#include "core/tree_walk.h"
#include "lattice/cube_lattice.h"

namespace cubist {
namespace {

/// The cells of `source` that sum to the point `coords` of `view`: the
/// view's dimensions pinned at the coordinates, the others whole.
BlockRange point_region(DimSet source, DimSet view,
                        const std::vector<std::int64_t>& coords,
                        const std::vector<std::int64_t>& sizes) {
  std::vector<std::int64_t> lo;
  std::vector<std::int64_t> hi;
  std::size_t coord = 0;
  for (int d : source.dims()) {
    const bool pinned = view.contains(d);
    lo.push_back(pinned ? coords[coord] : 0);
    hi.push_back(pinned ? coords[coord++] + 1 : sizes[d]);
  }
  return BlockRange(std::move(lo), std::move(hi));
}

}  // namespace

PartialCube PartialCube::build(std::shared_ptr<const SparseArray> input,
                               std::vector<DimSet> views, BuildStats* stats) {
  CUBIST_CHECK(input != nullptr, "PartialCube needs an input array");
  const std::vector<std::int64_t> sizes = input->shape().extents();
  // The routing table rejects the root and views out of the lattice;
  // duplicates collapse into one flag in the table and the walk.
  AncestorTable routes = AncestorTable::build(CubeLattice(sizes), views);
  auto cube = std::make_shared<CubeResult>(sizes);
  TreeWalk<> walk(AggregationTree(input->ndim()), views, AggregateOp::kSum,
                  AggregateOptions{});
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
  if (from && *from == view) {
    if (cells_scanned != nullptr) *cells_scanned = 1;
    return views_->view(view).at(coords);
  }
  // Resolved first, so an adopted cube rejects a root-view point at once.
  const SparseArray* input_array = from ? nullptr : &input();
  const DimSet source = from ? *from : DimSet::full(ndims());
  CUBIST_CHECK(view.is_subset_of(source),
               "source " << source.to_string() << " does not cover view "
                         << view.to_string());
  const BlockRange region = point_region(source, view, coords, sizes());
  DenseArray point{Shape{}};
  const AggregationTarget target{DimSet::full(source.size()), &point};
  const AggregationStats scan =
      from ? aggregate_children(views_->view(*from), std::span(&target, 1),
                                region, {}, AggregateOp::kSum,
                                /*input_level=*/false)
           : aggregate_children(*input_array, std::span(&target, 1), region);
  if (cells_scanned != nullptr) *cells_scanned = scan.cells_scanned;
  return point[0];
}

DenseArray PartialCube::materialize_from(std::optional<DimSet> from,
                                         DimSet view,
                                         std::int64_t* cells_scanned) const {
  // Resolved before the output is allocated, so a root-view query on an
  // adopted cube fails without allocating the root.
  const SparseArray* input_array = from ? nullptr : &input();
  const DimSet source = from ? *from : DimSet::full(ndims());
  CUBIST_CHECK(view.is_subset_of(source),
               "source " << source.to_string() << " does not cover view "
                         << view.to_string());
  std::vector<std::int64_t> extents;
  for (int d : view.dims()) extents.push_back(sizes()[d]);
  DenseArray out{Shape{extents}};
  const AggregationTarget target{source.positions_of(source.minus(view)),
                                 &out};
  const AggregationStats scan =
      from ? aggregate_children(views_->view(*from), std::span(&target, 1),
                                BlockRange::whole(views_->view(*from).shape()),
                                {}, AggregateOp::kSum, /*input_level=*/false)
           : aggregate_children(*input_array, std::span(&target, 1),
                                BlockRange::whole(input_array->shape()));
  if (cells_scanned != nullptr) *cells_scanned = scan.cells_scanned;
  return out;
}

DenseArray PartialCube::materialize(DimSet view,
                                    std::int64_t* cells_scanned) const {
  return materialize_from(routes_.route(view), view, cells_scanned);
}

}  // namespace cubist
