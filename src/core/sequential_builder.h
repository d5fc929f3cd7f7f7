// Sequential data cube construction over the aggregation tree (Figure 3):
// the shared walk of core/tree_walk.h with every child kept. The live
// intermediate results never exceed the Theorem-1 bound (sum of the
// first-level view sizes), asserted by the test suite against the stats
// reported here.
#pragma once

#include <cstdint>

#include "array/aggregate.h"
#include "array/aggregate_op.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "core/cube_result.h"

namespace cubist {

/// Work and memory accounting of one construction run.
struct BuildStats {
  /// High-water mark of live computed views, in bytes (input excluded —
  /// the quantity bounded by Theorems 1 and 4).
  std::int64_t peak_live_bytes = 0;
  /// Total bytes written back (every proper view exactly once).
  std::int64_t written_bytes = 0;
  /// Input/intermediate cells scanned across all evaluation steps.
  std::int64_t cells_scanned = 0;
  /// Aggregation updates performed.
  std::int64_t updates = 0;
  /// High-water mark of transient scan bytes (offset tables) across all
  /// scans (released scan-by-scan, so a max, not a sum; bounded by
  /// scan_scratch_bound of the largest planned scan).
  std::int64_t peak_scratch_bytes = 0;
};

/// Builds the full cube from a dense root array. The result holds every
/// proper view (the root view is the input itself and is not duplicated).
/// `op` selects the aggregate (extension; the paper fixes SUM — every
/// operator runs the same striped kernels). `agg_options` names the pool
/// the scans stripe over, under its size() / active_ranks() budget; the
/// default uses the global pool. Results are bit-identical for every pool.
CubeResult build_cube_sequential(const DenseArray& root,
                                 BuildStats* stats = nullptr,
                                 AggregateOp op = AggregateOp::kSum,
                                 const AggregateOptions& agg_options = {});

/// Builds the full cube from a chunk-offset sparse root array (the
/// paper's experimental configuration: sparse input, dense outputs).
CubeResult build_cube_sequential(const SparseArray& root,
                                 BuildStats* stats = nullptr,
                                 AggregateOp op = AggregateOp::kSum,
                                 const AggregateOptions& agg_options = {});

}  // namespace cubist
