#include "core/sequential_builder.h"

#include "common/error.h"
#include "core/tree_walk.h"

namespace cubist {
namespace {

template <typename Root>
CubeResult build(const Root& root, BuildStats* stats, AggregateOp op,
                 const AggregateOptions& agg_options) {
  TreeWalk<> walk(root.ndim(), op, agg_options);
  CubeResult result(root.shape().extents());
  for (auto& [mask, view] : walk.run(root)) {
    finalize_view(op, view);
    result.put(DimSet::from_mask(mask), std::move(view));
  }
  CUBIST_ASSERT(result.num_views() + 1 == (std::size_t{1} << root.ndim()),
                "cube incomplete");
  if (stats != nullptr) *stats = walk.stats();
  return result;
}

}  // namespace

CubeResult build_cube_sequential(const DenseArray& root, BuildStats* stats,
                                 AggregateOp op,
                                 const AggregateOptions& agg_options) {
  return build(root, stats, op, agg_options);
}

CubeResult build_cube_sequential(const SparseArray& root, BuildStats* stats,
                                 AggregateOp op,
                                 const AggregateOptions& agg_options) {
  return build(root, stats, op, agg_options);
}

}  // namespace cubist
