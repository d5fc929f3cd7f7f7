// PartialCube: a partially materialized data cube.
//
// Materializes only a chosen subset of views (see view_selection.h); any
// group-by on any view is still answerable, routed to the smallest
// materialized ancestor and aggregated on the fly by one scan of it with
// the builders' kernels (array/aggregate.h). The routes are one AncestorTable,
// built with the cube, so every query is one table lookup. The query cost in
// cells matches the linear model the selection optimizes, so the
// storage/latency trade-off is directly measurable (bench_partial).
//
// The views are built by the aggregation-tree walk of the full-cube
// builders (core/tree_walk.h), pruned to the selection, and held in a
// shared CubeResult. A complete cube from any builder is adopted as the
// selection of every proper view, sharing its views and holding no input.
//
// The input is held through a shared_ptr: re-plan cycles build the next
// generation's cube from the SAME input array (input_ptr()), so swapping
// selections never doubles the input's footprint — only the materialized
// views differ between generations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "array/sparse_array.h"
#include "common/dimset.h"
#include "core/cube_result.h"
#include "core/sequential_builder.h"
#include "lattice/ancestor_table.h"

namespace cubist {

class PartialCube {
 public:
  /// Materializes `views` from the sparse input in one aggregation-tree
  /// walk (SUM) told to keep only them: a node is scanned only for the
  /// children whose subtree holds a selected view, and an unselected
  /// intermediate is freed once its subtree is done. `stats` is the
  /// walk's own, so peak_live_bytes is measured (input excluded) and
  /// stays within the Theorem-1 bound. The input is shared, not copied,
  /// to answer queries no view covers.
  static PartialCube build(std::shared_ptr<const SparseArray> input,
                           std::vector<DimSet> views,
                           BuildStats* stats = nullptr);

  /// Convenience overload that takes ownership of a caller copy. Re-plan
  /// paths should use the shared_ptr overload so every generation of the
  /// cube shares ONE input array.
  static PartialCube build(SparseArray input, std::vector<DimSet> views,
                           BuildStats* stats = nullptr);

  /// Takes a complete cube (every proper view, as every builder and
  /// reference_cube return) as the every-view selection, sharing it
  /// without a copy: every view routes to itself, and there is no input. A cube missing a proper view is
  /// rejected, since projecting it from an ancestor would sum, which is
  /// wrong for a MIN or MAX cube, and a CubeResult does not record its
  /// operator.
  static PartialCube adopt(std::shared_ptr<const CubeResult> cube);

  int ndims() const { return views_->ndims(); }
  const std::vector<std::int64_t>& sizes() const { return views_->sizes(); }

  /// The shared input array; pass to build() to re-plan without copying.
  /// An adopted cube has none, so both throw InvalidArgument there: that
  /// rejects root-view queries and re-plans.
  const std::shared_ptr<const SparseArray>& input_ptr() const;
  const SparseArray& input() const { return *input_ptr(); }

  /// The materialized views; adopt() shares the cube it was given.
  const CubeResult& views() const { return *views_; }
  bool is_materialized(DimSet view) const { return views_->has(view); }
  std::vector<DimSet> materialized_views() const {
    return views_->stored_views();
  }
  /// Storage held by materialized views, in bytes (input excluded).
  std::int64_t materialized_bytes() const;

  /// Direct access to a materialized view.
  const DenseArray& view(DimSet view) const { return views_->view(view); }

  /// Each view's cheapest materialized ancestor (or the input): the
  /// routes query() and materialize() take.
  const AncestorTable& routes() const { return routes_; }

  /// Point group-by on ANY view of the lattice. If the view is
  /// materialized this is one lookup; otherwise the smallest materialized
  /// ancestor is aggregated over its free dimensions at the fixed
  /// coordinates. `cells_scanned` (optional) reports the work done,
  /// comparable with query_cost().
  Value query(DimSet view, const std::vector<std::int64_t>& coords,
              std::int64_t* cells_scanned = nullptr) const;

  /// Point group-by routed through a caller-chosen source: `from` must be
  /// a materialized superset of `view` (nullopt = the raw input). Every
  /// route first checks the coordinates against the cube's extents. The
  /// view itself is one lookup (1 cell); an ancestor or the input is one
  /// scan of the point's region (|from| / |view| cells, or its non-zeros).
  Value query_from(std::optional<DimSet> from, DimSet view,
                   const std::vector<std::int64_t>& coords,
                   std::int64_t* cells_scanned = nullptr) const;

  /// Fully materializes ANY view on the fly by aggregating the source
  /// `from` (same contract as query_from) down to `view` in one scan.
  /// `cells_scanned` reports |from| (dense source) or nnz (input source),
  /// the same price query_cost() charges; projecting a view out of
  /// itself degenerates to a copy and charges |view|.
  DenseArray materialize_from(std::optional<DimSet> from, DimSet view,
                              std::int64_t* cells_scanned = nullptr) const;

  /// Convenience: materialize_from() routed via routes().
  DenseArray materialize(DimSet view,
                         std::int64_t* cells_scanned = nullptr) const;

 private:
  PartialCube(std::shared_ptr<const SparseArray> input,
              std::shared_ptr<const CubeResult> views, AncestorTable routes)
      : input_(std::move(input)),
        views_(std::move(views)),
        routes_(std::move(routes)) {}

  std::shared_ptr<const SparseArray> input_;  // null for an adopted cube
  std::shared_ptr<const CubeResult> views_;
  AncestorTable routes_;
};

}  // namespace cubist
