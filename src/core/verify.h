// Reference cube construction and cube comparison, for correctness tests.
//
// The reference cube shares no code with the engine it validates: no tree
// walk and no scan kernel (tools/lint.py rule 8). Every view is its own
// GROUP BY over the root's non-empty cells (Gray et al.), one pass per
// view. Slow; it holds no array besides the cube it returns.
#pragma once

#include <string>

#include "array/aggregate_op.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "core/cube_result.h"

namespace cubist {

/// Every proper view of the root under `op`, finalized as the builders
/// finalize theirs. A zero cell of a dense root is empty.
CubeResult reference_cube(const DenseArray& root,
                          AggregateOp op = AggregateOp::kSum);
CubeResult reference_cube(const SparseArray& root,
                          AggregateOp op = AggregateOp::kSum);

/// Exact comparison of two cubes over the views stored in `expected`.
/// Returns an empty string on success, else a description of the first
/// mismatch (values are integer-exact by construction, so equality is
/// meaningful).
std::string compare_cubes(const CubeResult& expected,
                          const CubeResult& actual);

/// Internal-consistency check of a SUM cube: every stored view must equal each
/// of its stored lattice parents summed cell by cell along the extra dimension
/// (drill-down/roll-up consistency), with no engine code. Returns an empty
/// string on success, else the first violated edge. Useful for downstream users
/// validating cubes loaded from disk or assembled from other systems.
std::string validate_cube_consistency(const CubeResult& cube);

}  // namespace cubist
