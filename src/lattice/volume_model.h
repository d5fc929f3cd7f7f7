// Closed-form communication volume (paper Lemma 1 and Theorem 3).
//
// With dimension j split 2^{k_j} ways, computing aggregation-tree node ~Y
// from its parent reduces partial blocks over the 2^{k_m} processors along
// the added element m = max(Y); the per-edge volume is
//     (2^{k_m} - 1) * prod_{j not in Y} D_j      [Lemma 1, in elements]
// (the splits of the retained dimensions cancel: more groups, each with
// proportionally smaller blocks). Summing over all prefix-tree edges and
// grouping by m yields the closed form
//     V = sum_m (2^{k_m} - 1) * prod_{j<m} (1 + D_j) * prod_{j>m} D_j
// [Theorem 3]. The per-dimension weight w_m = prod_{j<m}(1+D_j) *
// prod_{j>m} D_j is what the Figure-6 partitioner greedily balances.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/dimset.h"

namespace cubist {

/// Lemma 1: elements communicated when computing the aggregation-tree view
/// whose *prefix-tree node* is `aggregated` (the set of dimensions removed
/// so far, with m = max(aggregated) the one being reduced now).
/// `sizes[d]` are global extents, `log_splits[d]` = k_d.
std::int64_t edge_volume_elements(const std::vector<std::int64_t>& sizes,
                                  const std::vector<int>& log_splits,
                                  DimSet aggregated);

/// Expected volume per view (keyed by the *view* mask, i.e. the retained
/// dimensions) — what the run's per-tag volume (RunReport::volume) must
/// match exactly.
std::map<std::uint32_t, std::int64_t> volume_by_view_elements(
    const std::vector<std::int64_t>& sizes,
    const std::vector<int>& log_splits);

/// Theorem 3: total elements communicated over the whole construction.
std::int64_t total_volume_elements(const std::vector<std::int64_t>& sizes,
                                   const std::vector<int>& log_splits);

/// The weight w_m of Theorem 3's restatement (paper §5): the cost
/// multiplier of splitting dimension m.
std::int64_t dimension_weight(const std::vector<std::int64_t>& sizes, int m);

}  // namespace cubist
