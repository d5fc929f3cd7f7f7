#include "core/verify.h"

#include <array>
#include <sstream>

#include "common/error.h"

namespace cubist {
namespace {

/// Every proper view as a GROUP BY under `op`: it starts at the identity,
/// combines the contribution of each cell `for_each_cell` visits (the
/// root's non-empty cells, in the root's order), and is finalized.
template <typename ForEachCell>
CubeResult group_by_every_view(const Shape& root, AggregateOp op,
                               const ForEachCell& for_each_cell) {
  const int n = root.ndim();
  CubeResult result(root.extents());
  for (std::uint32_t mask = 0; mask + 1 < (std::uint32_t{1} << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    std::vector<std::int64_t> extents;
    for (int d : view.dims()) extents.push_back(root.extent(d));
    DenseArray array{Shape{std::move(extents)}, identity_of(op)};
    for_each_cell([&](const std::int64_t* index, Value value) {
      std::int64_t cell = 0;
      for (int d = 0, pos = 0; d < n; ++d) {
        if (view.contains(d)) cell += index[d] * array.shape().stride(pos++);
      }
      combine(op, array[cell], contribution_of(op, value));
    });
    finalize_view(op, array);
    result.put(view, std::move(array));
  }
  return result;
}

}  // namespace

CubeResult reference_cube(const DenseArray& root, AggregateOp op) {
  return group_by_every_view(root.shape(), op, [&](const auto& fn) {
    std::array<std::int64_t, kMaxDims> index{};
    for (std::int64_t linear = 0; linear < root.size(); ++linear) {
      if (root[linear] == Value{0}) continue;  // an empty input cell
      root.shape().unravel(linear, index.data());
      fn(index.data(), root[linear]);
    }
  });
}

CubeResult reference_cube(const SparseArray& root, AggregateOp op) {
  return group_by_every_view(root.shape(), op, [&](const auto& fn) {
    root.for_each_nonzero(fn);
  });
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
      // Sum the parent along d, cell by cell, and compare.
      const int pos = parent_view.position_of(d);
      DenseArray derived{child.shape()};
      std::array<std::int64_t, kMaxDims> index{};
      for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
        parent.shape().unravel(linear, index.data());
        std::int64_t cell = 0;
        for (int k = 0, c = 0; k < parent.ndim(); ++k) {
          if (k != pos) cell += index[k] * derived.shape().stride(c++);
        }
        derived[cell] += parent[linear];
      }
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
