#include "array/aggregate.h"

#include <algorithm>
#include <vector>

#include "common/mathutil.h"
#include "common/thread_pool.h"

namespace cubist {
namespace {

// Child-array stride of each parent dimension, 0 for the aggregated one.
// The projected (child) linear index of a parent multi-index `idx` is then
// sum_d idx[d] * stride[d].
std::vector<std::int64_t> projection_strides(const Shape& parent_shape,
                                             const AggregationTarget& target) {
  const int m = parent_shape.ndim();
  CUBIST_CHECK(target.aggregated_pos >= 0 && target.aggregated_pos < m,
               "aggregated_pos out of range");
  CUBIST_CHECK(target.child != nullptr, "null child array");
  CUBIST_CHECK(target.child->shape() ==
                   parent_shape.without_dim(target.aggregated_pos),
               "child shape mismatch for aggregated_pos "
                   << target.aggregated_pos);
  std::vector<std::int64_t> strides(static_cast<std::size_t>(m), 0);
  int child_dim = 0;
  for (int d = 0; d < m; ++d) {
    if (d == target.aggregated_pos) continue;
    strides[d] = target.child->shape().stride(child_dim);
    ++child_dim;
  }
  return strides;
}

std::vector<std::vector<std::int64_t>> all_projection_strides(
    const Shape& parent_shape, std::span<const AggregationTarget> targets) {
  std::vector<std::vector<std::int64_t>> strides;
  strides.reserve(targets.size());
  for (const AggregationTarget& target : targets) {
    strides.push_back(projection_strides(parent_shape, target));
  }
  return strides;
}

std::int64_t child_bytes_for(const Shape& parent, int aggregated_pos) {
  return parent.size() / parent.extent(aggregated_pos) *
         static_cast<std::int64_t>(sizeof(Value));
}

/// Shared stripe planner over an iteration space of `units` row-major
/// units. `alias_block[c]` is the aligned run length (in units) within
/// which all contributions to one cell/region of child c fall: stripes
/// whose length is a multiple of it write disjoint child regions. Walks
/// the candidate stripe counts downward until the private-accumulator
/// scratch fits min(kScanScratchBudgetBytes, sum of `child_bytes`);
/// everything here is a function of shapes (and `work_cells`), never of
/// the thread count.
StripePlan plan_stripes(std::int64_t units, const Shape& space,
                        std::span<const std::int64_t> alias_block,
                        std::span<const std::int64_t> child_bytes,
                        std::int64_t work_cells) {
  StripePlan plan;
  plan.stripe_len = std::max<std::int64_t>(units, 1);
  plan.aliased.assign(alias_block.size(), 0);
  const std::int64_t desired =
      std::min(kMaxScanStripes, work_cells / kMinCellsPerStripe);
  if (units <= 1 || desired <= 1) return plan;
  std::int64_t budget = 0;
  for (const std::int64_t bytes : child_bytes) budget += bytes;
  budget = std::min(kScanScratchBudgetBytes, budget);
  for (std::int64_t g = std::min(desired, units); g >= 2; --g) {
    const std::int64_t raw = ceil_div(units, g);
    // Align the stripe length to the largest iteration-space stride that
    // fits, so as many targets as possible become alias-free.
    std::int64_t align = 1;
    for (int d = 0; d < space.ndim(); ++d) {
      if (space.stride(d) <= raw) align = std::max(align, space.stride(d));
    }
    const std::int64_t len = ceil_div(raw, align) * align;
    const std::int64_t stripes = ceil_div(units, len);
    if (stripes <= 1) continue;
    std::int64_t scratch = 0;
    for (std::size_t c = 0; c < alias_block.size(); ++c) {
      if (len % alias_block[c] != 0) scratch += child_bytes[c];
    }
    scratch *= stripes;
    if (scratch > budget) continue;
    plan.num_stripes = stripes;
    plan.stripe_len = len;
    for (std::size_t c = 0; c < alias_block.size(); ++c) {
      plan.aliased[c] = len % alias_block[c] != 0 ? 1 : 0;
    }
    plan.scratch_bytes = scratch;
    return plan;
  }
  return plan;
}

ThreadPool& pool_of(const AggregateOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::global();
}

/// The operator interface the kernels are written against — all a
/// distributive aggregate needs: an identity, a combine step, and the
/// contribution one cell of the scanned parent makes. In raw input
/// (`kInput`), 0 marks an empty cell, which contributes the identity, and
/// COUNT maps every other cell to 1; an aggregate view's cells already
/// hold combined values (the identity where empty) and pass through.
template <AggregateOp kOp, bool kInput>
struct OpPolicy {
  static constexpr Value kIdentity = identity_of(kOp);
  static void combine(Value& accumulator, Value value) {
    cubist::combine(kOp, accumulator, value);
  }
  static Value contribution(Value cell) {
    if constexpr (kInput) {
      return cell == Value{0} ? kIdentity : contribution_of(kOp, cell);
    } else {
      return cell;
    }
  }
};

/// Calls `kernel(policy)` with the OpPolicy of `op` at this cell level.
/// SUM at any level and COUNT over a view are the same plain `+=` (an
/// empty raw SUM cell contributes its 0 as is), so they share one
/// instantiation.
template <typename Kernel>
AggregationStats with_policy(AggregateOp op, bool input_level,
                             const Kernel& kernel) {
  switch (op) {
    case AggregateOp::kSum:
      return kernel(OpPolicy<AggregateOp::kSum, false>{});
    case AggregateOp::kCount:
      return input_level ? kernel(OpPolicy<AggregateOp::kCount, true>{})
                         : kernel(OpPolicy<AggregateOp::kSum, false>{});
    case AggregateOp::kMin:
      return input_level ? kernel(OpPolicy<AggregateOp::kMin, true>{})
                         : kernel(OpPolicy<AggregateOp::kMin, false>{});
    case AggregateOp::kMax:
      return input_level ? kernel(OpPolicy<AggregateOp::kMax, true>{})
                         : kernel(OpPolicy<AggregateOp::kMax, false>{});
  }
  CUBIST_CHECK(false, "unknown aggregate operator");
  return {};
}

/// Combines `bufs` into `child`, cell by cell, in ascending stripe order —
/// the fixed merge order that makes striped scans bit-identical for any
/// thread count. Parallel over disjoint cell ranges.
template <typename P>
void merge_stripe_buffers(DenseArray* child,
                          const std::vector<DenseArray>& bufs,
                          const AggregateOptions& options) {
  const std::int64_t n = child->size();
  Value* out = child->data();
  std::vector<const Value*> srcs;
  srcs.reserve(bufs.size());
  for (const DenseArray& buf : bufs) srcs.push_back(buf.data());
  pool_of(options).parallel_for(
      0, n, std::int64_t{1} << 15,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          Value acc = P::kIdentity;
          for (const Value* src : srcs) P::combine(acc, src[i]);
          P::combine(out[i], acc);
        }
      },
      options.max_workers);
}

/// Runs `scan(begin, end, bases)` over the plan's stripes of [0, units).
/// `bases[c]` is where target c combines: its child, or — for a child
/// that aliases across stripes — a stripe-private clone filled with the
/// identity, merged into the child afterwards.
template <typename P, typename Scan>
void run_stripes(const StripePlan& plan, std::int64_t units,
                 std::span<const AggregationTarget> targets,
                 const AggregateOptions& options, const Scan& scan) {
  const std::size_t num_targets = targets.size();
  std::vector<Value*> children(num_targets);
  for (std::size_t c = 0; c < num_targets; ++c) {
    children[c] = targets[c].child->data();
  }
  if (plan.num_stripes <= 1) {
    scan(0, units, children);
    return;
  }
  std::vector<std::vector<DenseArray>> scratch(num_targets);
  for (std::size_t c = 0; c < num_targets; ++c) {
    if (plan.aliased[c] == 0) continue;
    scratch[c].reserve(static_cast<std::size_t>(plan.num_stripes));
    for (std::int64_t s = 0; s < plan.num_stripes; ++s) {
      scratch[c].emplace_back(targets[c].child->shape(), P::kIdentity);
    }
  }
  pool_of(options).parallel_for(
      0, plan.num_stripes, 1,
      [&](std::int64_t stripe_lo, std::int64_t stripe_hi) {
        std::vector<Value*> bases = children;
        for (std::int64_t s = stripe_lo; s < stripe_hi; ++s) {
          for (std::size_t c = 0; c < num_targets; ++c) {
            if (plan.aliased[c] != 0) {
              bases[c] = scratch[c][static_cast<std::size_t>(s)].data();
            }
          }
          const std::int64_t begin = s * plan.stripe_len;
          scan(begin, std::min(units, begin + plan.stripe_len), bases);
        }
      },
      options.max_workers);
  for (std::size_t c = 0; c < num_targets; ++c) {
    if (plan.aliased[c] != 0) {
      merge_stripe_buffers<P>(targets[c].child, scratch[c], options);
    }
  }
}

/// One target's state during a dense row scan.
struct ScanTarget {
  /// Combine base: the child array or a stripe-private buffer (same
  /// indexing either way — private buffers clone the child shape).
  Value* base = nullptr;
  /// Child stride per parent dimension (0 for the aggregated one).
  const std::int64_t* strides = nullptr;
  /// Projected child index of the current row's first cell.
  std::int64_t row_start = 0;
};

/// Scans parent rows [row_begin, row_end), combining every target into
/// `bases`. Row-major row order with a fixed per-row target order, so the
/// arithmetic is independent of how rows are striped across threads
/// (per child cell, all contributions come from one stripe, in row
/// order). The inner loops are specialized for the dominant cases: a
/// row reduction for the innermost-dimension target (delta 0) and
/// contiguous elementwise combines for every other target (delta 1),
/// issued jointly for up to three targets so the parent row is read once.
template <typename P>
void scan_dense_rows(const Value* parent_data, const Shape& outer,
                     std::int64_t inner, std::int64_t row_begin,
                     std::int64_t row_end,
                     const std::vector<std::vector<std::int64_t>>& strides,
                     std::span<Value* const> bases) {
  const int od = outer.ndim();
  const int m = od + 1;
  std::vector<std::int64_t> idx(static_cast<std::size_t>(od), 0);
  outer.unravel(row_begin, idx.data());
  std::vector<ScanTarget> targets(bases.size());
  for (std::size_t c = 0; c < targets.size(); ++c) {
    ScanTarget& t = targets[c];
    t.base = bases[c];
    t.strides = strides[c].data();
    for (int d = 0; d < od; ++d) t.row_start += idx[d] * t.strides[d];
  }
  // Split targets by their inner-dimension delta: 0 = the aggregated
  // dimension is the innermost (row reduction), 1 = contiguous row combine.
  std::vector<ScanTarget*> reduce_targets;
  std::vector<ScanTarget*> vec_targets;
  for (ScanTarget& t : targets) {
    const std::int64_t delta = t.strides[m - 1];
    CUBIST_DCHECK(delta == 0 || delta == 1,
                  "inner-dimension child stride must be 0 or 1, got "
                      << delta);
    (delta == 0 ? reduce_targets : vec_targets).push_back(&t);
  }

  const Value* cell = parent_data + row_begin * inner;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const Value* in = cell;
    if (!reduce_targets.empty()) {
      Value acc = P::kIdentity;  // fixed left-to-right order: deterministic
      for (std::int64_t i = 0; i < inner; ++i) {
        P::combine(acc, P::contribution(in[i]));
      }
      for (ScanTarget* t : reduce_targets) {
        P::combine(t->base[t->row_start], acc);
      }
    }
    switch (vec_targets.size()) {
      case 0:
        break;
      case 1: {
        Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
        for (std::int64_t i = 0; i < inner; ++i) {
          P::combine(o0[i], P::contribution(in[i]));
        }
        break;
      }
      case 2: {
        Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
        Value* o1 = vec_targets[1]->base + vec_targets[1]->row_start;
        for (std::int64_t i = 0; i < inner; ++i) {
          const Value v = P::contribution(in[i]);
          P::combine(o0[i], v);
          P::combine(o1[i], v);
        }
        break;
      }
      case 3: {
        Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
        Value* o1 = vec_targets[1]->base + vec_targets[1]->row_start;
        Value* o2 = vec_targets[2]->base + vec_targets[2]->row_start;
        for (std::int64_t i = 0; i < inner; ++i) {
          const Value v = P::contribution(in[i]);
          P::combine(o0[i], v);
          P::combine(o1[i], v);
          P::combine(o2[i], v);
        }
        break;
      }
      default:
        for (ScanTarget* t : vec_targets) {
          Value* out = t->base + t->row_start;
          for (std::int64_t i = 0; i < inner; ++i) {
            P::combine(out[i], P::contribution(in[i]));
          }
        }
        break;
    }
    cell += inner;
    // Odometer over the outer dimensions, updating each row start.
    for (int d = od - 1; d >= 0; --d) {
      ++idx[d];
      if (idx[d] < outer.extent(d)) {
        for (ScanTarget& t : targets) t.row_start += t.strides[d];
        break;
      }
      idx[d] = 0;
      for (ScanTarget& t : targets) {
        t.row_start -= (outer.extent(d) - 1) * t.strides[d];
      }
    }
  }
}

Shape outer_shape(const Shape& parent) {
  std::vector<std::int64_t> extents(parent.extents().begin(),
                                    parent.extents().end());
  extents.pop_back();
  return Shape{extents};
}

std::vector<int> target_positions(std::span<const AggregationTarget> targets) {
  std::vector<int> positions;
  positions.reserve(targets.size());
  for (const AggregationTarget& target : targets) {
    positions.push_back(target.aggregated_pos);
  }
  return positions;
}

template <typename P>
AggregationStats aggregate_dense(const DenseArray& parent,
                                 std::span<const AggregationTarget> targets,
                                 const AggregateOptions& options) {
  const std::vector<std::vector<std::int64_t>> strides =
      all_projection_strides(parent.shape(), targets);
  const StripePlan plan =
      plan_dense_scan(parent.shape(), target_positions(targets));
  const std::int64_t inner = parent.shape().extent(parent.ndim() - 1);
  const std::int64_t num_rows =
      parent.size() / std::max<std::int64_t>(inner, 1);
  const Shape outer = outer_shape(parent.shape());
  run_stripes<P>(plan, num_rows, targets, options,
                 [&](std::int64_t r0, std::int64_t r1,
                     std::span<Value* const> bases) {
                   scan_dense_rows<P>(parent.data(), outer, inner, r0, r1,
                                      strides, bases);
                 });
  return {parent.size(),
          parent.size() * static_cast<std::int64_t>(targets.size()),
          plan.scratch_bytes};
}

}  // namespace

StripePlan plan_dense_scan(const Shape& parent,
                           std::span<const int> aggregated_positions) {
  const int m = parent.ndim();
  StripePlan single;
  single.aliased.assign(aggregated_positions.size(), 0);
  single.stripe_len = 1;
  if (m <= 1) return single;
  const std::int64_t inner = parent.extent(m - 1);
  const std::int64_t rows = parent.size() / std::max<std::int64_t>(inner, 1);
  single.stripe_len = std::max<std::int64_t>(rows, 1);
  if (rows <= 1 || parent.size() == 0) return single;
  const Shape outer = outer_shape(parent);
  std::vector<std::int64_t> alias_block;
  std::vector<std::int64_t> child_bytes;
  for (const int a : aggregated_positions) {
    CUBIST_CHECK(a >= 0 && a < m, "aggregated position out of range");
    // Rows feeding one child cell: exactly one row when the innermost
    // dimension is aggregated; otherwise an aligned run of rows spanning
    // the aggregated dimension's row stride.
    if (a == m - 1) {
      alias_block.push_back(1);
    } else if (a == 0) {
      alias_block.push_back(rows);
    } else {
      alias_block.push_back(outer.stride(a - 1));
    }
    child_bytes.push_back(child_bytes_for(parent, a));
  }
  return plan_stripes(rows, outer, alias_block, child_bytes, parent.size());
}

StripePlan plan_sparse_scan(const Shape& parent, const Shape& chunk_grid,
                            std::span<const int> aggregated_positions,
                            std::int64_t work_cells) {
  const int m = parent.ndim();
  CUBIST_CHECK(chunk_grid.ndim() == m, "chunk grid rank mismatch");
  const std::int64_t units = chunk_grid.size();
  StripePlan single;
  single.aliased.assign(aggregated_positions.size(), 0);
  single.stripe_len = std::max<std::int64_t>(units, 1);
  if (units <= 1) return single;
  std::vector<std::int64_t> alias_block;
  std::vector<std::int64_t> child_bytes;
  for (const int a : aggregated_positions) {
    CUBIST_CHECK(a >= 0 && a < m, "aggregated position out of range");
    // Chunks feeding one child region differ only in chunk coordinate a:
    // an aligned run of extent(a) * stride(a) = stride(a - 1) chunk ids.
    alias_block.push_back(a == 0 ? units : chunk_grid.stride(a - 1));
    child_bytes.push_back(child_bytes_for(parent, a));
  }
  return plan_stripes(units, chunk_grid, alias_block, child_bytes,
                      work_cells);
}

std::int64_t scan_scratch_bound(const Shape& parent,
                                std::span<const int> aggregated_positions,
                                std::int64_t bytes_per_cell) {
  CUBIST_CHECK(bytes_per_cell > 0, "bytes_per_cell must be positive");
  std::int64_t total_child_bytes = 0;
  for (const int a : aggregated_positions) {
    CUBIST_CHECK(a >= 0 && a < parent.ndim(),
                 "aggregated position out of range");
    total_child_bytes += parent.size() / parent.extent(a) * bytes_per_cell;
  }
  return std::min(kScanScratchBudgetBytes, total_child_bytes);
}

AggregationStats aggregate_children(const DenseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options,
                                    AggregateOp op, bool input_level) {
  if (targets.empty()) return {};
  CUBIST_CHECK(parent.ndim() >= 1, "cannot aggregate a scalar parent");
  return with_policy(op, input_level, [&](auto policy) {
    return aggregate_dense<decltype(policy)>(parent, targets, options);
  });
}

namespace {

/// Scans sparse chunks [chunk_begin, chunk_end), combining every target
/// into `bases` (child arrays or stripe-private clones). Chunk order and
/// per-chunk nonzero order are fixed, so the arithmetic does not depend
/// on the striping. An empty `offset_table` sends every chunk down the
/// decode path.
template <typename P>
void scan_sparse_chunks(
    const SparseArray& parent,
    const std::vector<std::vector<std::int64_t>>& strides,
    const std::vector<std::vector<std::int64_t>>& offset_table,
    std::int64_t chunk_begin, std::int64_t chunk_end,
    std::span<Value* const> bases) {
  const int m = parent.ndim();
  const std::size_t num_targets = strides.size();
  std::vector<std::int64_t> chunk_coords(static_cast<std::size_t>(m), 0);
  std::vector<std::int64_t> local(static_cast<std::size_t>(m), 0);
  std::vector<std::int64_t> base_ci(num_targets);

  for (std::int64_t chunk_id = chunk_begin; chunk_id < chunk_end;
       ++chunk_id) {
    const auto offsets = parent.chunk_offsets(chunk_id);
    if (offsets.empty()) continue;
    const auto values = parent.chunk_values(chunk_id);
    parent.chunk_grid().unravel(chunk_id, chunk_coords.data());
    const auto base = parent.chunk_base(chunk_coords);
    for (std::size_t c = 0; c < num_targets; ++c) {
      std::int64_t projected = 0;
      for (int d = 0; d < m; ++d) {
        projected += base[d] * strides[c][d];
      }
      base_ci[c] = projected;
    }

    if (!offset_table.empty() && parent.chunk_is_full(chunk_coords)) {
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        const auto off = offsets[i];
        const Value v = P::contribution(values[i]);
        for (std::size_t c = 0; c < num_targets; ++c) {
          P::combine(bases[c][base_ci[c] + offset_table[c][off]], v);
        }
      }
    } else {
      // Boundary chunk: clipped extents, decode offsets directly.
      const Shape local_shape{parent.chunk_shape_at(chunk_coords)};
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        local_shape.unravel(static_cast<std::int64_t>(offsets[i]),
                            local.data());
        const Value v = P::contribution(values[i]);
        for (std::size_t c = 0; c < num_targets; ++c) {
          std::int64_t projected = base_ci[c];
          for (int d = 0; d < m; ++d) {
            projected += local[d] * strides[c][d];
          }
          P::combine(bases[c][projected], v);
        }
      }
    }
  }
}

/// Every interior chunk shares the same shape, so the map (within-chunk
/// offset) -> (child index contribution) is chunk-invariant. Built once
/// per target, it makes an interior non-zero cost one table lookup plus
/// one combine per target. It is only worthwhile when the scan's
/// non-zeros at least match the table's entries per target, and it is
/// built only when its bytes fit the cap on the scan's stripe scratch
/// (scan_scratch_bound: at most the bytes of the children it feeds);
/// otherwise this returns no table and every chunk takes the decode path,
/// which combines in the same order. The table is integer data, so its
/// construction parallelizes without ordering concerns.
std::vector<std::vector<std::int64_t>> chunk_offset_table(
    const SparseArray& parent, std::span<const AggregationTarget> targets,
    const std::vector<std::vector<std::int64_t>>& strides,
    const AggregateOptions& options) {
  const Shape full_chunk_shape{parent.chunk_extents()};
  const std::int64_t full_volume = full_chunk_shape.size();
  const std::size_t num_targets = strides.size();
  const std::int64_t table_bytes =
      static_cast<std::int64_t>(num_targets * sizeof(std::int64_t)) *
      full_volume;
  if (parent.nnz() < full_volume ||
      table_bytes >
          scan_scratch_bound(parent.shape(), target_positions(targets))) {
    return {};
  }
  const int m = parent.ndim();
  std::vector<std::vector<std::int64_t>> offset_table(num_targets);
  for (std::size_t c = 0; c < num_targets; ++c) {
    offset_table[c].resize(static_cast<std::size_t>(full_volume));
  }
  pool_of(options).parallel_for(
      0, full_volume, std::int64_t{1} << 14,
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::int64_t> local(static_cast<std::size_t>(m), 0);
        for (std::int64_t off = lo; off < hi; ++off) {
          full_chunk_shape.unravel(off, local.data());
          for (std::size_t c = 0; c < num_targets; ++c) {
            std::int64_t projected = 0;
            for (int d = 0; d < m; ++d) {
              projected += local[d] * strides[c][d];
            }
            offset_table[c][static_cast<std::size_t>(off)] = projected;
          }
        }
      },
      options.max_workers);
  return offset_table;
}

template <typename P>
AggregationStats aggregate_sparse(const SparseArray& parent,
                                  std::span<const AggregationTarget> targets,
                                  const AggregateOptions& options) {
  const std::vector<std::vector<std::int64_t>> strides =
      all_projection_strides(parent.shape(), targets);
  const std::vector<std::vector<std::int64_t>> offset_table =
      chunk_offset_table(parent, targets, strides, options);
  const StripePlan plan =
      plan_sparse_scan(parent.shape(), parent.chunk_grid(),
                       target_positions(targets), parent.nnz());
  run_stripes<P>(plan, parent.num_chunks(), targets, options,
                 [&](std::int64_t c0, std::int64_t c1,
                     std::span<Value* const> bases) {
                   scan_sparse_chunks<P>(parent, strides, offset_table, c0,
                                         c1, bases);
                 });
  return {parent.nnz(),
          parent.nnz() * static_cast<std::int64_t>(targets.size()),
          plan.scratch_bytes};
}

}  // namespace

AggregationStats aggregate_children(const SparseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options,
                                    AggregateOp op) {
  if (targets.empty()) return {};
  CUBIST_CHECK(parent.ndim() >= 1, "cannot aggregate a scalar parent");
  return with_policy(op, /*input_level=*/true, [&](auto policy) {
    return aggregate_sparse<decltype(policy)>(parent, targets, options);
  });
}

namespace {

// Out-array stride of each parent dimension for a multi-dim projection
// (0 for aggregated-away dimensions).
std::vector<std::int64_t> multi_projection_strides(
    const Shape& parent_shape, const std::vector<int>& kept_positions,
    const DenseArray& out) {
  const int m = parent_shape.ndim();
  std::vector<std::int64_t> expected;
  for (std::size_t i = 0; i < kept_positions.size(); ++i) {
    const int pos = kept_positions[i];
    CUBIST_CHECK(pos >= 0 && pos < m, "kept position out of range");
    CUBIST_CHECK(i == 0 || kept_positions[i - 1] < pos,
                 "kept positions must be strictly ascending");
    expected.push_back(parent_shape.extent(pos));
  }
  CUBIST_CHECK(out.shape().extents() == expected,
               "projection output shape mismatch");
  std::vector<std::int64_t> strides(static_cast<std::size_t>(m), 0);
  for (std::size_t i = 0; i < kept_positions.size(); ++i) {
    strides[kept_positions[i]] = out.shape().stride(static_cast<int>(i));
  }
  return strides;
}

}  // namespace

AggregationStats project(const DenseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out) {
  CUBIST_CHECK(out != nullptr, "null projection output");
  const std::vector<std::int64_t> strides =
      multi_projection_strides(parent.shape(), kept_positions, *out);
  const int m = parent.ndim();
  Value* dst = out->data();
  if (m == 0) {
    dst[0] += parent[0];
    return {1, 1, 0};
  }
  std::vector<std::int64_t> index(static_cast<std::size_t>(m), 0);
  for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
    parent.shape().unravel(linear, index.data());
    std::int64_t projected = 0;
    for (int d = 0; d < m; ++d) {
      projected += index[d] * strides[d];
    }
    dst[projected] += parent[linear];
  }
  return {parent.size(), parent.size(), 0};
}

AggregationStats project(const SparseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out) {
  CUBIST_CHECK(out != nullptr, "null projection output");
  const std::vector<std::int64_t> strides =
      multi_projection_strides(parent.shape(), kept_positions, *out);
  const int m = parent.ndim();
  Value* dst = out->data();
  AggregationStats stats;
  parent.for_each_nonzero([&](const std::int64_t* index, Value value) {
    std::int64_t projected = 0;
    for (int d = 0; d < m; ++d) {
      projected += index[d] * strides[d];
    }
    dst[projected] += value;
    ++stats.cells_scanned;
    ++stats.updates;
  });
  return stats;
}

}  // namespace cubist
