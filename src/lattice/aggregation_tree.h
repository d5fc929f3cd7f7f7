// Aggregation tree (paper Definition 3, Figure 2c).
//
// The complement of the prefix tree: node ~X exists for every prefix-tree
// node X, and edges carry over. It is a spanning tree of the data cube
// lattice, so it prescribes one parent per view. Its two key properties
// (paper §3):
//   * evaluating a node computes ALL its children in one scan (maximal
//     cache/memory reuse), and
//   * a right-to-left depth-first traversal bounds the live intermediate
//     results by the sum of the first-level view sizes (Theorem 1), which
//     is also a lower bound for any tree (Theorem 2).
//
// That traversal is written once, as walk_tree(): the Figure-3 Evaluate,
// with Figure 5 as its per-rank case for p > 1, over this tree or any
// SpanningTree. Each caller is a visitor: TreeWalk (core/tree_walk.h)
// scans real arrays, the per-child baseline projects each child, the
// static planner (analysis/comm_plan.cpp) emits one rank's planned
// reduce, memory and write-back events, and schedule() records the walk
// as events, whose write-backs give completion_order().
//
// The tree is expressed over dimension *positions* 0..n-1; instantiating it
// for a particular ordering of physical dimensions is the job of the core
// layer (the paper's "parameterized by the ordering of dimensions").
//
// Closed form used here (equivalent to complementing Definition 2): the
// children of view V are V \ {j} for every position j ∈ V greater than all
// positions already aggregated away (j > max(~V)), ordered left to right by
// ascending j; the parent of V re-adds the largest missing position.
#pragma once

#include <vector>

#include "common/dimset.h"

namespace cubist {

/// One step of the Figure-3/Figure-5 construction schedule.
struct ScheduleEvent {
  enum class Kind {
    /// Scan `view`'s array once, producing all of its children.
    kComputeChildren,
    /// `view` is complete and no longer needed: write it back / free it.
    kWriteBack,
  };
  Kind kind;
  DimSet view;

  bool operator==(const ScheduleEvent&) const = default;
};

/// Evaluate(view) of Figure 3 (Figure 5 per rank) over any spanning tree
/// whose children(view) are listed left to right. For every internal node
/// `visit.scan(view, children)` runs once, with the children left to
/// right. The children are then taken right to left:
/// `keep = visit.finalize(view, child)`; a kept child is walked in turn
/// (a leaf returns at once); then `visit.retire(child, keep)` takes it
/// out of the live set. `view` itself is never retired. Right to left is
/// the order the Theorem-1/4 memory bounds hold for.
template <typename Tree, typename Visitor>
void walk_tree(const Tree& tree, DimSet view, Visitor& visit) {
  const std::vector<DimSet> kids = tree.children(view);
  if (kids.empty()) return;
  visit.scan(view, kids);
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    const bool keep = visit.finalize(view, *it);
    if (keep) walk_tree(tree, *it, visit);
    visit.retire(*it, keep);
  }
}

class AggregationTree {
 public:
  explicit AggregationTree(int n);

  int ndims() const { return n_; }
  DimSet root() const { return DimSet::full(n_); }

  /// Children of `view`, left to right (ascending aggregated position).
  std::vector<DimSet> children(DimSet view) const;

  bool is_leaf(DimSet view) const { return children(view).empty(); }

  /// Parent of `view`; precondition: view != root.
  DimSet parent(DimSet view) const;

  /// The position aggregated away when `view` was computed from its
  /// parent: the largest position missing from `view`.
  int aggregated_dim(DimSet view) const;

  /// walk_tree() from the root with every child kept, as events:
  /// kComputeChildren per internal node and kWriteBack per non-root view.
  std::vector<ScheduleEvent> schedule() const;

  /// Every proper view (2^n - 1; the root is the input) in the order
  /// it is completed (write-back order).
  std::vector<DimSet> completion_order() const;

 private:
  int n_;
};

}  // namespace cubist
