// The aggregation-tree walk behind every cube builder: Figure 3, whose
// p > 1 case is Figure 5.
//
// Evaluate(l): one scan of (this rank's block of) l produces ALL of l's
// aggregation-tree children at once; the children are then visited right
// to left. Each child first passes the finalize-child hook: for p = 1 it
// keeps every child; for p > 1 it reduces the child's partial blocks along
// the aggregated dimension and keeps the child only on the lead ranks. A
// kept leaf is written back at once, a kept internal node is evaluated
// recursively, and l itself is written back last. The only traffic is
// reading the input once and writing each computed view once, and the live
// views never exceed the Theorem-1 bound (Theorem 4 per rank) — both
// asserted by the test suite against the stats reported here.
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
/// the operator's identity: the builders apply finalize_view once, after
/// any cross-slab combine.
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
  /// Observes a kept view as it leaves the live set.
  void write_back(DimSet /*view*/, const DenseArray& /*block*/) {}
};

template <typename Hooks = KeepEveryChild>
class TreeWalk {
 public:
  TreeWalk(int n, AggregateOp op, const AggregateOptions& agg_options,
           Hooks hooks = {})
      : tree_(n), op_(op), agg_options_(agg_options), hooks_(std::move(hooks)) {}

  /// Walks the whole tree below `root` (raw input: a DenseArray or a
  /// SparseArray) and returns every kept proper view, unfinalized.
  template <typename Root>
  ViewBlocks run(const Root& root) {
    compute_children(tree_.root(), root, /*input_level=*/true);
    descend(tree_.root());
    CUBIST_ASSERT(live_.empty(), "views left unwritten");
    stats_.peak_live_bytes = ledger_.peak_bytes();
    return std::move(done_);
  }

  const BuildStats& stats() const { return stats_; }

 private:
  /// One scan of `parent` producing every aggregation-tree child of
  /// `view`, each starting at the operator's identity. `input_level` is
  /// true only for the root scan (raw-input cell semantics).
  template <typename Parent>
  void compute_children(DimSet view, const Parent& parent, bool input_level) {
    const std::vector<int> view_dims = view.dims();
    std::vector<AggregationTarget> targets;
    for (DimSet child : tree_.children(view)) {
      const int aggregated = view.minus(child).min_dim();
      // Position of the aggregated dimension within the parent's dims.
      int pos = 0;
      while (view_dims[pos] != aggregated) ++pos;
      auto [it, inserted] = live_.try_emplace(
          child.mask(), parent.shape().without_dim(pos), identity_of(op_));
      CUBIST_ASSERT(inserted, "child already live");
      ledger_.alloc(it->second.bytes());
      targets.push_back(AggregationTarget{pos, &it->second});
    }
    const AggregationStats scan =
        hooks_.scan(view, input_level, targets.size(), [&] {
          if constexpr (std::is_same_v<Parent, SparseArray>) {
            return aggregate_children(parent, targets, agg_options_, op_);
          } else {
            return aggregate_children(parent, targets, agg_options_, op_,
                                      input_level);
          }
        });
    stats_.cells_scanned += scan.cells_scanned;
    stats_.updates += scan.updates;
    stats_.peak_scratch_bytes =
        std::max(stats_.peak_scratch_bytes, scan.scratch_bytes);
  }

  /// The right-to-left child walk below a just-scanned node.
  void descend(DimSet view) {
    const std::vector<DimSet> kids = tree_.children(view);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      const DimSet child = *it;
      const bool keep =
          hooks_.finalize_child(view, child, live_.at(child.mask()));
      if (keep && !tree_.is_leaf(child)) {
        evaluate(child);
      } else {
        retire(child, keep);
      }
    }
  }

  /// Evaluate() for a non-root node whose array is live.
  void evaluate(DimSet view) {
    compute_children(view, live_.at(view.mask()), /*input_level=*/false);
    descend(view);
    retire(view, /*keep=*/true);
  }

  /// Takes `view` out of the live set: written back into the result if
  /// kept, else dropped.
  void retire(DimSet view, bool keep) {
    auto it = live_.find(view.mask());
    CUBIST_ASSERT(it != live_.end(), "retiring a non-live view");
    ledger_.release(it->second.bytes());
    if (keep) {
      hooks_.write_back(view, it->second);
      stats_.written_bytes += it->second.bytes();
      done_.emplace(view.mask(), std::move(it->second));
    }
    live_.erase(it);
  }

  AggregationTree tree_;
  AggregateOp op_;
  AggregateOptions agg_options_;
  Hooks hooks_;
  ViewBlocks live_;
  ViewBlocks done_;
  MemoryLedger ledger_;
  BuildStats stats_;
};

}  // namespace cubist
