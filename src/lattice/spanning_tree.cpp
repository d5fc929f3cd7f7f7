#include "lattice/spanning_tree.h"

#include "common/error.h"
#include "lattice/aggregation_tree.h"

namespace cubist {

SpanningTree::SpanningTree(int n, std::vector<DimSet> parents)
    : n_(n), parents_(std::move(parents)) {
  CUBIST_ASSERT(parents_.size() == (std::size_t{1} << n_),
                "parent table must cover the whole lattice");
}

SpanningTree SpanningTree::aggregation(int n) {
  AggregationTree tree(n);
  std::vector<DimSet> parents(std::size_t{1} << n);
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    parents[mask] = (view == tree.root()) ? view : tree.parent(view);
  }
  return SpanningTree(n, std::move(parents));
}

SpanningTree SpanningTree::minimal_parent(const CubeLattice& lattice) {
  const int n = lattice.ndims();
  std::vector<DimSet> parents(std::size_t{1} << n);
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    parents[mask] =
        (view == DimSet::full(n)) ? view : lattice.minimal_parent(view);
  }
  return SpanningTree(n, std::move(parents));
}

SpanningTree SpanningTree::all_from_root(int n) {
  std::vector<DimSet> parents(std::size_t{1} << n, DimSet::full(n));
  return SpanningTree(n, std::move(parents));
}

SpanningTree SpanningTree::mmst(const CubeLattice& lattice,
                                const std::vector<std::int64_t>& chunk_extents) {
  const int n = lattice.ndims();
  CUBIST_CHECK(static_cast<int>(chunk_extents.size()) == n,
               "chunk rank mismatch");
  std::vector<DimSet> parents(std::size_t{1} << n);
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    if (view == DimSet::full(n)) {
      parents[mask] = view;
      continue;
    }
    std::int64_t best_cost = -1;
    DimSet best_parent;
    for (int a = 0; a < n; ++a) {
      if (view.contains(a)) continue;
      // Memory to hold `view` while scanning parent view+{a} in chunk
      // order: dims before `a` need their full extent, dims after only a
      // chunk's worth (Zhao et al.'s MMST cost).
      std::int64_t cost = 1;
      for (int d : view.dims()) {
        cost *= (d < a) ? lattice.size_of_dim(d) : chunk_extents[d];
      }
      if (best_cost < 0 || cost < best_cost ||
          (cost == best_cost &&
           lattice.view_cells(view.with(a)) <
               lattice.view_cells(best_parent))) {
        best_cost = cost;
        best_parent = view.with(a);
      }
    }
    parents[mask] = best_parent;
  }
  return SpanningTree(n, std::move(parents));
}

DimSet SpanningTree::parent(DimSet view) const {
  CUBIST_CHECK(view != root(), "root has no parent");
  CUBIST_CHECK(view.is_subset_of(root()), "view out of lattice");
  return parents_[view.mask()];
}

std::vector<DimSet> SpanningTree::children(DimSet view) const {
  std::vector<DimSet> out;
  for (auto mask = static_cast<std::uint32_t>(parents_.size()); mask-- > 0;) {
    const DimSet candidate = DimSet::from_mask(mask);
    if (candidate != root() && parents_[mask] == view) {
      out.push_back(candidate);
    }
  }
  return out;
}

bool SpanningTree::uses_minimal_parents(const CubeLattice& lattice) const {
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n_); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    if (view == root()) continue;
    const DimSet chosen = parents_[mask];
    if (chosen.size() != view.size() + 1) return false;  // multi-dim hop
    if (lattice.view_cells(chosen) !=
        lattice.view_cells(lattice.minimal_parent(view))) {
      return false;
    }
  }
  return true;
}

std::int64_t SpanningTree::multiway_scan_cost(const CubeLattice& lattice) const {
  std::int64_t cost = 0;
  for (std::uint32_t mask = 0; mask < parents_.size(); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    if (!children(view).empty()) {
      cost += lattice.view_cells(view);
    }
  }
  return cost;
}

std::int64_t SpanningTree::per_child_scan_cost(
    const CubeLattice& lattice) const {
  std::int64_t cost = 0;
  for (std::uint32_t mask = 0; mask < parents_.size(); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    if (view == root()) continue;
    cost += lattice.view_cells(parents_[mask]);
  }
  return cost;
}

}  // namespace cubist
