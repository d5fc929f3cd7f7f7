// The builders' side of the aggregation-tree walk: Figure 3, whose p > 1
// case is Figure 5, run over real arrays.
//
// The order is the lattice's one walk (walk_tree), the one the static planner
// also goes through; TreeWalk is its visitor, over the AggregationTree or, for
// the multi-way baseline, any SpanningTree. Each scan of (this rank's block of)
// a node produces ALL of its children at once, each a kernel target that drops
// the dimensions its edge drops (one on the aggregation tree, several on
// all-from-root). Each child then passes the finalize-child hook: for p = 1 it
// keeps every child; for p > 1 it reduces the child's partial blocks along the
// aggregated dimension and keeps the child only on the lead ranks. A kept
// child's subtree is walked before the child is written back; a dropped child
// is freed at once. The write-back hook keeps the view in the walk's result
// (the sequential and tiled builders, PartialCube) or takes it: the per-rank
// hooks ship it to rank 0 or place it into rank 0's cube, and the walk frees it
// at once. The only traffic is reading the input once and writing each computed
// view once, and the live views never exceed the Theorem-1 bound (Theorem 4 per
// rank) — both asserted by the test suite against the stats reported here.
//
// The walk's input is the set of views to produce: every proper view for
// the builders, the materialized set for a PartialCube. A node is scanned
// only for the children whose subtree holds a selected view, and only
// selected views are written back; an unselected intermediate is freed
// once its subtree is done. That live set is a subset of the full walk's
// at every step, so the same bounds hold.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "array/aggregate.h"
#include "array/sparse_array.h"
#include "common/error.h"
#include "core/sequential_builder.h"
#include "lattice/aggregation_tree.h"
#include "lattice/memory_sim.h"

namespace cubist {

/// Views a walk kept, keyed by view mask. Cells without data still hold
/// the operator's identity: the sequential builders apply finalize_view
/// once, after any cross-slab combine.
using ViewBlocks = std::map<std::uint32_t, DenseArray>;

/// Figure 3's hooks (p = 1): scans run bare and every child is kept. Also
/// the interface any other hooks provide.
struct KeepEveryChild {
  /// Runs one scan of `view` producing `children` children; `run()`
  /// performs it and returns its stats.
  template <typename Scan>
  AggregationStats scan(DimSet /*view*/, bool /*input_level*/,
                        std::size_t /*children*/, const Scan& run) {
    return run();
  }
  /// Called once per child right after its parent's scan; false drops
  /// the child (and with it its subtree) from this walk.
  bool finalize_child(DimSet /*view*/, DimSet /*child*/,
                      DenseArray& /*block*/) {
    return true;
  }
  /// Called once per kept view as it leaves the live set: true keeps it
  /// in the walk's result, false when the hook wrote it back itself (the
  /// walk then frees it at once).
  bool write_back(DimSet /*view*/, DenseArray& /*block*/) { return true; }
};

template <typename Hooks = KeepEveryChild, typename Tree = AggregationTree>
class TreeWalk {
 public:
  /// `views` are the proper views to produce, in any order. An edge of
  /// `tree` may drop several dimensions: the child's target drops them all.
  TreeWalk(Tree tree, const std::vector<DimSet>& views, AggregateOp op,
           const AggregateOptions& agg_options, Hooks hooks = {})
      : tree_(std::move(tree)),
        selected_(std::size_t{1} << tree_.ndims(), 0),
        needed_(std::size_t{1} << tree_.ndims(), 0),
        op_(op),
        agg_options_(agg_options),
        hooks_(std::move(hooks)) {
    for (DimSet view : views) {
      CUBIST_CHECK(view.is_subset_of(tree_.root()) && view != tree_.root(),
                   "view " << view.to_string() << " is not a proper view");
      selected_[view.mask()] = 1;
    }
    // Bottom up: every child's mask is below its parent's.
    for (std::size_t mask = 0; mask < needed_.size(); ++mask) {
      const DimSet view = DimSet::from_mask(static_cast<std::uint32_t>(mask));
      needed_[mask] = selected_[mask];
      for (DimSet child : tree_.children(view)) {
        needed_[mask] |= needed_[child.mask()];
      }
    }
  }

  /// Walks the tree below `root` (raw input: a DenseArray or a
  /// SparseArray) and returns every selected view the write-back hook
  /// kept, unfinalized.
  template <typename Root>
  ViewBlocks run(const Root& root) {
    Visit<Root> visit{*this, root};
    walk_tree(tree_, tree_.root(), visit);
    CUBIST_ASSERT(live_.empty(), "views left unwritten");
    stats_.peak_live_bytes = ledger_.peak_bytes();
    return std::move(done_);
  }

  const BuildStats& stats() const { return stats_; }

 private:
  /// The tree walk's visitor: scans the raw input at the root and
  /// live views below it, each for its children whose subtree holds a
  /// selected view. The other children are never live.
  template <typename Root>
  struct Visit {
    TreeWalk& walk;
    const Root& input;

    void scan(DimSet view, const std::vector<DimSet>& children) {
      std::vector<DimSet> needed;
      for (DimSet child : children) {
        if (walk.needed_[child.mask()]) needed.push_back(child);
      }
      if (needed.empty()) return;
      if (view == walk.tree_.root()) {
        walk.compute_children(view, needed, input, /*input_level=*/true);
      } else {
        walk.compute_children(view, needed, walk.live_.at(view.mask()),
                              /*input_level=*/false);
      }
    }
    bool finalize(DimSet view, DimSet child) {
      return walk.needed_[child.mask()] &&
             walk.hooks_.finalize_child(view, child,
                                        walk.live_.at(child.mask()));
    }
    void retire(DimSet view, bool keep) {
      if (walk.needed_[view.mask()]) {
        walk.retire(view, keep && walk.selected_[view.mask()]);
      }
    }
  };

  /// One scan of `parent` producing `children` of `view`, each starting
  /// at the operator's identity. `input_level` is true only for the root
  /// scan (raw-input cell semantics). The children are allocated inside
  /// the scan hook, so a hook that times the scan times their fill too.
  template <typename Parent>
  void compute_children(DimSet view, const std::vector<DimSet>& children,
                        const Parent& parent, bool input_level) {
    const AggregationStats scan =
        hooks_.scan(view, input_level, children.size(), [&] {
          std::vector<AggregationTarget> targets;
          for (DimSet child : children) {
            std::vector<std::int64_t> extents;  // of this parent's block
            for (int d : child.dims()) {
              extents.push_back(parent.shape().extent(view.position_of(d)));
            }
            auto [it, inserted] = live_.try_emplace(
                child.mask(), Shape{std::move(extents)}, identity_of(op_));
            CUBIST_ASSERT(inserted, "child already live");
            ledger_.alloc(it->second.bytes());
            targets.push_back(AggregationTarget{
                view.positions_of(view.minus(child)), &it->second});
          }
          const BlockRange whole = BlockRange::whole(parent.shape());
          if constexpr (std::is_same_v<Parent, SparseArray>) {
            return aggregate_children(parent, targets, whole, agg_options_,
                                      op_);
          } else {
            return aggregate_children(parent, targets, whole, agg_options_,
                                      op_, input_level);
          }
        });
    stats_.cells_scanned += scan.cells_scanned;
    stats_.updates += scan.updates;
    stats_.peak_scratch_bytes =
        std::max(stats_.peak_scratch_bytes, scan.scratch_bytes);
  }

  /// Takes `view` out of the live set: written back if kept (into the
  /// result unless the hook took it), else dropped.
  void retire(DimSet view, bool keep) {
    auto it = live_.find(view.mask());
    CUBIST_ASSERT(it != live_.end(), "retiring a non-live view");
    ledger_.release(it->second.bytes());
    if (keep) {
      stats_.written_bytes += it->second.bytes();
      if (hooks_.write_back(view, it->second)) {
        done_.emplace(view.mask(), std::move(it->second));
      }
    }
    live_.erase(it);
  }

  Tree tree_;
  std::vector<std::uint8_t> selected_;  // per view mask: write it back
  std::vector<std::uint8_t> needed_;    // per view mask: subtree selects
  AggregateOp op_;
  AggregateOptions agg_options_;
  Hooks hooks_;
  ViewBlocks live_;
  ViewBlocks done_;
  MemoryLedger ledger_;
  BuildStats stats_;
};

}  // namespace cubist
