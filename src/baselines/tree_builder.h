// Cube construction over an arbitrary spanning tree — the baselines.
//
// Lets the bench suite compare the aggregation tree against prior-work
// trees (MMST, MNST/minimal-parent, naive all-from-root) under two scan
// disciplines, both on the builders' one walk of the tree (walk_tree):
//   * kMultiWay  — one scan of each internal node produces all its
//     children simultaneously (what the aggregation tree enables): the
//     builders' TreeWalk over the SpanningTree, with their stats;
//   * kPerChild  — every child triggers its own scan of its parent (the
//     discipline of single-aggregate algorithms): one one-target kernel
//     scan of the parent per child.
// Both run every tree, including multi-dimension hops like
// all-from-root: a kernel target drops every dimension its edge drops.
// Memory accounting matches the main builders: a node is live from its
// computation until its write-back, after its subtree is walked.
#pragma once

#include <cstdint>

#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "core/cube_result.h"
#include "core/sequential_builder.h"
#include "lattice/spanning_tree.h"

namespace cubist {

enum class ScanDiscipline {
  kMultiWay,
  kPerChild,
};

/// Builds the full SUM cube along `tree` under `discipline`.
CubeResult build_cube_with_tree(const DenseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline,
                                BuildStats* stats = nullptr);
CubeResult build_cube_with_tree(const SparseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline,
                                BuildStats* stats = nullptr);

}  // namespace cubist
