#include "core/verify.h"

#include <sstream>

#include "array/aggregate.h"
#include "common/error.h"

namespace cubist {
namespace {

template <typename Root>
CubeResult reference_cube_impl(const Root& root) {
  const int n = root.ndim();
  CubeResult result(root.shape().extents());
  for (std::uint32_t mask = 0; mask + 1 < (std::uint32_t{1} << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    std::vector<std::int64_t> extents;
    for (int d : view.dims()) {
      extents.push_back(root.shape().extent(d));
    }
    DenseArray array{Shape{extents}};
    // In the root, dimension id == position, so view.dims() doubles as the
    // kept-position list.
    project(root, view.dims(), &array);
    result.put(view, std::move(array));
  }
  return result;
}

}  // namespace

CubeResult reference_cube(const DenseArray& root) {
  return reference_cube_impl(root);
}

CubeResult reference_cube(const SparseArray& root) {
  return reference_cube_impl(root);
}

std::string compare_cubes(const CubeResult& expected,
                          const CubeResult& actual) {
  if (expected.sizes() != actual.sizes()) {
    return "cube extents differ";
  }
  for (DimSet view : expected.stored_views()) {
    if (!actual.has(view)) {
      std::ostringstream out;
      out << "view " << view.to_string() << " missing from actual cube";
      return out.str();
    }
    const DenseArray& want = expected.view(view);
    const DenseArray& got = actual.view(view);
    if (want.shape() != got.shape()) {
      std::ostringstream out;
      out << "view " << view.to_string() << " shape mismatch: "
          << want.shape().to_string() << " vs " << got.shape().to_string();
      return out.str();
    }
    for (std::int64_t i = 0; i < want.size(); ++i) {
      if (want[i] != got[i]) {
        std::ostringstream out;
        out << "view " << view.to_string() << " differs at linear index "
            << i << ": expected " << want[i] << ", got " << got[i];
        return out.str();
      }
    }
  }
  return {};
}

std::string validate_cube_consistency(const CubeResult& cube) {
  for (DimSet view : cube.stored_views()) {
    const DenseArray& child = cube.view(view);
    const int n = cube.ndims();
    for (int d = 0; d < n; ++d) {
      if (view.contains(d)) continue;
      const DimSet parent_view = view.with(d);
      if (!cube.has(parent_view)) continue;
      const DenseArray& parent = cube.view(parent_view);
      // Aggregate the parent along d and compare.
      DenseArray derived{child.shape()};
      const AggregationTarget target{parent_view.position_of(d), &derived};
      aggregate_children(parent, std::span(&target, 1));
      if (!(derived == child)) {
        std::ostringstream out;
        out << "view " << view.to_string()
            << " is inconsistent with parent " << parent_view.to_string();
        return out.str();
      }
    }
  }
  return {};
}

}  // namespace cubist
