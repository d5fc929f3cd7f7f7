// AncestorTable: precomputed minimal-ancestor query routing (paper §2 /
// Theorem 7 applied to serving).
//
// Given the subset of lattice views a PartialCube materializes, the table
// answers "which materialized view should a query on view V read?" for
// all 2^n views at once: the cheapest materialized ancestor (fewest
// cells, ties toward the lowest mask), or the raw input when nothing
// covers V. It is built by one dynamic-programming pass down the lattice:
// V's candidates are V itself (if materialized) plus the routes of its
// immediate supersets, so the fallback chain is exactly the Theorem-7
// minimal-parent chain up to the root. Each PartialCube builds its table
// once (PartialCube::routes()); every query and on-the-fly projection,
// served or direct, is one lookup instead of a scan of the materialized
// set.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/dimset.h"
#include "lattice/cube_lattice.h"

namespace cubist {

class AncestorTable {
 public:
  /// Builds the routing table for `materialized` over `lattice`. The root
  /// must not be listed: it is the input, always implicitly available as
  /// the final fallback.
  static AncestorTable build(const CubeLattice& lattice,
                             const std::vector<DimSet>& materialized);

  int ndims() const { return n_; }

  /// The cheapest materialized ancestor of `view` (`view` itself when it
  /// is materialized), or nullopt when no materialized view covers it and
  /// the query must fall through to the raw input.
  std::optional<DimSet> route(DimSet view) const;

  /// Cells of the routed source: |route(view)|, or the root size when the
  /// route falls through to the input. This is exactly the price
  /// query_cost() charges the same view under the linear cost model.
  std::int64_t routed_cells(DimSet view) const;

  bool is_materialized(DimSet view) const;

 private:
  AncestorTable() = default;

  std::uint32_t index_of(DimSet view) const;

  int n_ = 0;
  std::uint32_t root_mask_ = 0;  // route_[v] == root_mask_ means "input"
  std::vector<std::uint32_t> route_;   // per view mask: routed view mask
  std::vector<std::int64_t> cells_;    // per view mask: routed_cells()
  std::vector<std::uint8_t> materialized_;  // per view mask
};

}  // namespace cubist
