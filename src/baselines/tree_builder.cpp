#include "baselines/tree_builder.h"

#include <map>
#include <vector>

#include "array/aggregate.h"
#include "common/error.h"
#include "lattice/memory_sim.h"

namespace cubist {
namespace {

class TreeBuilder {
 public:
  TreeBuilder(std::vector<std::int64_t> sizes, const SpanningTree& tree,
              ScanDiscipline discipline)
      : sizes_(std::move(sizes)),
        n_(static_cast<int>(sizes_.size())),
        tree_(tree),
        discipline_(discipline),
        result_(sizes_) {}

  template <typename Root>
  CubeResult run(const Root& root, BuildStats* stats) {
    evaluate_root(root);
    CUBIST_ASSERT(live_.empty(), "views left unwritten");
    CUBIST_ASSERT(result_.num_views() + 1 == (std::size_t{1} << n_),
                  "cube incomplete");
    if (stats != nullptr) {
      stats_.peak_live_bytes = ledger_.peak_bytes();
      *stats = stats_;
    }
    return std::move(result_);
  }

 private:
  Shape view_shape(DimSet view) const {
    std::vector<std::int64_t> extents;
    for (int d : view.dims()) extents.push_back(sizes_[d]);
    return Shape{extents};
  }

  DenseArray& allocate(DimSet view) {
    auto [it, inserted] = live_.try_emplace(view.mask(),
                                            DenseArray(view_shape(view)));
    CUBIST_ASSERT(inserted, "view already live");
    ledger_.alloc(it->second.bytes());
    return it->second;
  }

  void track(const AggregationStats& scan) {
    stats_.cells_scanned += scan.cells_scanned;
    stats_.updates += scan.updates;
  }

  /// Children of `view`, processed in ascending-mask order. For the
  /// aggregation tree this IS Figure 3's right-to-left walk: the child
  /// dropping the largest eligible dimension has the smallest mask, so
  /// ascending masks evaluate the leaf-heavy right side first and the
  /// Theorem-1 memory profile is reproduced exactly.
  template <typename Parent>
  void process_children(DimSet view, const Parent& parent_array) {
    const std::vector<DimSet> kids = tree_.children(view);
    if (kids.empty()) return;

    if (discipline_ == ScanDiscipline::kMultiWay) {
      std::vector<AggregationTarget> targets;
      for (DimSet child : kids) {
        CUBIST_CHECK(child.size() + 1 == view.size(),
                     "multi-way discipline requires single-dimension edges");
        targets.push_back(AggregationTarget{
            view.position_of(view.minus(child).min_dim()), &allocate(child)});
      }
      track(aggregate_children(parent_array, targets));
      for (DimSet child : kids) {
        evaluate(child);
      }
    } else {
      for (DimSet child : kids) {
        // The child's positions among the parent's dimensions.
        std::vector<int> kept;
        for (int d : child.dims()) kept.push_back(view.position_of(d));
        track(project(parent_array, kept, &allocate(child)));
        evaluate(child);
      }
    }
  }

  /// `view` is live (computed); produce its subtree, then write it back.
  void evaluate(DimSet view) {
    process_children(view, live_.at(view.mask()));
    write_back(view);
  }

  template <typename Root>
  void evaluate_root(const Root& root) {
    process_children(DimSet::full(n_), root);
  }

  void write_back(DimSet view) {
    auto it = live_.find(view.mask());
    CUBIST_ASSERT(it != live_.end(), "write-back of non-live view");
    ledger_.release(it->second.bytes());
    stats_.written_bytes += it->second.bytes();
    result_.put(view, std::move(it->second));
    live_.erase(it);
  }

  std::vector<std::int64_t> sizes_;
  int n_;
  const SpanningTree& tree_;
  ScanDiscipline discipline_;
  CubeResult result_;
  std::map<std::uint32_t, DenseArray> live_;
  MemoryLedger ledger_;
  BuildStats stats_;
};

}  // namespace

CubeResult build_cube_with_tree(const DenseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline, BuildStats* stats) {
  CUBIST_CHECK(tree.ndims() == root.ndim(), "tree rank mismatch");
  TreeBuilder builder(root.shape().extents(), tree, discipline);
  return builder.run(root, stats);
}

CubeResult build_cube_with_tree(const SparseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline, BuildStats* stats) {
  CUBIST_CHECK(tree.ndims() == root.ndim(), "tree rank mismatch");
  TreeBuilder builder(root.shape().extents(), tree, discipline);
  return builder.run(root, stats);
}

}  // namespace cubist
