#include "baselines/tree_builder.h"

#include <utility>
#include <vector>

#include "array/aggregate.h"
#include "common/error.h"
#include "core/tree_walk.h"
#include "lattice/aggregation_tree.h"
#include "lattice/memory_sim.h"

namespace cubist {
namespace {

/// The per-child discipline as a visitor of the tree's walk: each child is
/// filled by its own scan of its parent when the walk reaches it, and
/// leaves the live set when it retires. `result` holds every computed view.
template <typename Root>
struct PerChildScans {
  const Root& root;
  CubeResult result;
  MemoryLedger ledger;
  BuildStats stats;

  void scan(DimSet /*view*/, const std::vector<DimSet>& /*children*/) {}

  bool finalize(DimSet view, DimSet child) {
    std::vector<std::int64_t> extents;
    for (int d : child.dims()) extents.push_back(root.shape().extent(d));
    DenseArray out{Shape{std::move(extents)}};
    const AggregationTarget target{view.positions_of(view.minus(child)), &out};
    const AggregationStats scan =
        view == DimSet::full(root.ndim())
            ? aggregate_children(root, std::span(&target, 1),
                                 BlockRange::whole(root.shape()))
            : aggregate_children(result.view(view), std::span(&target, 1),
                                 BlockRange::whole(result.view(view).shape()),
                                 {}, AggregateOp::kSum, /*input_level=*/false);
    stats.cells_scanned += scan.cells_scanned;
    stats.updates += scan.updates;
    ledger.alloc(out.bytes());
    result.put(child, std::move(out));
    return true;
  }

  void retire(DimSet view, bool /*keep*/) {
    ledger.release(result.view(view).bytes());
    stats.written_bytes += result.view(view).bytes();
  }
};

template <typename Root>
CubeResult build(const Root& root, const SpanningTree& tree,
                 ScanDiscipline discipline, BuildStats* stats) {
  CUBIST_CHECK(tree.ndims() == root.ndim(), "tree rank mismatch");
  if (discipline == ScanDiscipline::kPerChild) {
    PerChildScans<Root> visit{root, CubeResult(root.shape().extents()), {}, {}};
    walk_tree(tree, tree.root(), visit);
    visit.stats.peak_live_bytes = visit.ledger.peak_bytes();
    if (stats != nullptr) *stats = visit.stats;
    return std::move(visit.result);
  }
  TreeWalk<KeepEveryChild, SpanningTree> walk(
      tree, AggregationTree(root.ndim()).completion_order(), AggregateOp::kSum,
      AggregateOptions{});
  CubeResult result(root.shape().extents());
  for (auto& [mask, view] : walk.run(root)) {
    result.put(DimSet::from_mask(mask), std::move(view));
  }
  if (stats != nullptr) *stats = walk.stats();
  return result;
}

}  // namespace

CubeResult build_cube_with_tree(const DenseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline, BuildStats* stats) {
  return build(root, tree, discipline, stats);
}

CubeResult build_cube_with_tree(const SparseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline, BuildStats* stats) {
  return build(root, tree, discipline, stats);
}

}  // namespace cubist
