// Generic spanning trees of the cube lattice, for baseline comparison.
//
// The aggregation tree is one spanning tree; prior work used others (paper
// §7): Zhao et al.'s MMST (minimum memory), Tam's MNST (minimum number of
// scans ~ minimal parents), and the naive "everything from the root". This
// class represents any choice of one parent per non-root view, where the
// parent may be any strict superset (the naive tree computes views directly
// from the root, aggregating several dimensions in one projection). Every
// such tree runs the aggregation tree's one walk (walk_tree).
#pragma once

#include <cstdint>
#include <vector>

#include "common/dimset.h"
#include "lattice/cube_lattice.h"

namespace cubist {

class SpanningTree {
 public:
  /// The paper's aggregation tree, as a SpanningTree (for uniform
  /// comparison with the baselines).
  static SpanningTree aggregation(int n);

  /// Minimal-parent tree: every view's parent is its cheapest immediate
  /// superset (Tam's MNST minimizes total computation this way).
  static SpanningTree minimal_parent(const CubeLattice& lattice);

  /// Naive tree: every view is computed directly from the root array.
  static SpanningTree all_from_root(int n);

  /// Zhao-style minimum-memory spanning tree. For each view, picks the
  /// immediate-superset parent minimizing the memory needed to hold the
  /// result while the parent is scanned in chunk order:
  ///   prod_{d in view, d < a} D_d * prod_{d in view, d > a} c_d
  /// where a is the aggregated dimension and c_d the chunk extent. This is
  /// a reimplementation of the MMST cost of Zhao et al. (SIGMOD'97) for
  /// baseline purposes.
  static SpanningTree mmst(const CubeLattice& lattice,
                           const std::vector<std::int64_t>& chunk_extents);

  int ndims() const { return n_; }
  DimSet root() const { return DimSet::full(n_); }

  /// Parent of `view` (a strict superset). Precondition: view != root.
  DimSet parent(DimSet view) const;

  /// Views whose parent is `view`, left to right: descending mask, as
  /// AggregationTree lists them, so the walk takes ascending masks.
  std::vector<DimSet> children(DimSet view) const;

  /// True if every non-root view's parent is its minimal parent
  /// (the Theorem-7 property).
  bool uses_minimal_parents(const CubeLattice& lattice) const;

  /// Total cells scanned when every internal node is scanned once and all
  /// its children are produced simultaneously (multi-way discipline).
  std::int64_t multiway_scan_cost(const CubeLattice& lattice) const;

  /// Total cells scanned when each child triggers its own scan of its
  /// parent (per-child discipline, as in single-aggregate algorithms).
  std::int64_t per_child_scan_cost(const CubeLattice& lattice) const;

 private:
  SpanningTree(int n, std::vector<DimSet> parents);

  int n_;
  /// parent_[mask] for every non-root view; parent_[root] = root.
  std::vector<DimSet> parents_;
};

}  // namespace cubist
