#include "array/aggregate.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <vector>

#include "common/mathutil.h"
#include "common/thread_pool.h"

namespace cubist {
namespace {

/// Per target, the child-array stride of each parent dimension, 0 for the
/// aggregated ones. The child index of a parent multi-index `idx` in
/// `region` is then sum_d (idx[d] - region.lo(d)) * stride[d].
std::vector<std::vector<std::int64_t>> all_projection_strides(
    const BlockRange& region, std::span<const AggregationTarget> targets) {
  const int m = region.ndim();
  std::vector<std::vector<std::int64_t>> all;
  for (const AggregationTarget& target : targets) {
    CUBIST_CHECK(target.dropped.is_subset_of(DimSet::full(m)),
                 "aggregated position out of range in "
                     << target.dropped.to_string());
    CUBIST_CHECK(target.child != nullptr, "null child array");
    std::vector<std::int64_t> kept;
    for (int d = 0; d < m; ++d) {
      if (!target.dropped.contains(d)) kept.push_back(region.extent(d));
    }
    CUBIST_CHECK(target.child->shape().extents() == kept,
                 "child shape mismatch for aggregated positions "
                     << target.dropped.to_string());
    std::vector<std::int64_t>& strides =
        all.emplace_back(static_cast<std::size_t>(m), 0);
    for (int d = 0, child_dim = 0; d < m; ++d) {
      if (target.dropped.contains(d)) continue;
      strides[d] = target.child->shape().stride(child_dim++);
    }
  }
  return all;
}

std::vector<DimSet> dropped_sets(std::span<const AggregationTarget> targets) {
  std::vector<DimSet> dropped;
  dropped.reserve(targets.size());
  for (const AggregationTarget& target : targets) {
    dropped.push_back(target.dropped);
  }
  return dropped;
}

/// Checks that `region` lies in the parent.
void check_region(const Shape& parent, const BlockRange& region) {
  CUBIST_CHECK(region.ndim() == parent.ndim(), "region rank mismatch");
  for (int d = 0; d < parent.ndim(); ++d) {
    CUBIST_CHECK(region.hi(d) <= parent.extent(d),
                 "region outside the parent in dim " << d);
  }
}

/// The outermost dimension outside `skip` that spans several units (rows
/// or chunks); failing that, the outermost one with several cells in one
/// unit; -1 if every other dimension has one cell.
int stripe_dim(const Shape& parent, std::span<const std::int64_t> unit,
               DimSet skip) {
  int within_unit = -1;
  for (int d = 0; d < parent.ndim(); ++d) {
    if (skip.contains(d) || parent.extent(d) < 2) continue;
    if (parent.extent(d) > unit[d]) return d;
    if (within_unit < 0) within_unit = d;
  }
  return within_unit;
}

/// Appends at most `count` stripes of dimension `dim` to `plan`, as even
/// as whole units allow, or cells when `dim` lies in one unit.
void add_stripes(const Shape& parent, std::span<const std::int64_t> unit,
                 int dim, std::int64_t count, bool lone, StripePlan& plan) {
  const std::int64_t extent = parent.extent(dim);
  const std::int64_t step = extent > unit[dim] ? unit[dim] : 1;
  const std::int64_t steps = ceil_div(extent, step);
  const std::int64_t n = std::min(count, steps);
  for (std::int64_t k = 0; k < n; ++k) {
    plan.stripes.push_back({dim, std::min(extent, steps * k / n * step),
                            std::min(extent, steps * (k + 1) / n * step),
                            lone});
  }
}

}  // namespace

StripePlan plan_sparse_scan(const Shape& parent,
                            std::span<const std::int64_t> unit,
                            std::span<const DimSet> dropped,
                            std::int64_t work_cells) {
  const int m = parent.ndim();
  CUBIST_CHECK(m >= 1 && static_cast<int>(unit.size()) == m,
               "a scan plan needs one unit extent per parent dimension");
  for (const DimSet set : dropped) {
    CUBIST_CHECK(set.is_subset_of(DimSet::full(m)),
                 "aggregated position out of range in " << set.to_string());
  }
  const std::int64_t count =
      std::min(kMaxScanStripes, work_cells / kMinCellsPerStripe);
  const int slab = count >= 2 ? stripe_dim(parent, unit, DimSet()) : -1;
  if (slab < 0) return {-1, {{0, 0, parent.extent(0), false}}};
  StripePlan plan{slab, {}};
  std::int64_t lone = 0;
  DimSet lone_dropped;  // every position a lone target drops
  for (const DimSet set : dropped) {
    if (!set.contains(slab)) continue;
    ++lone;
    lone_dropped = lone_dropped.union_with(set);
  }
  if (lone > 0) {
    // Every cell of a lone child keeps the dimensions its target does not
    // drop, so the lone stripes split one that all of them keep; with none
    // left, they take one stripe.
    const int other = stripe_dim(parent, unit, lone_dropped);
    add_stripes(parent, unit, other < 0 ? slab : other, other < 0 ? 1 : count,
                true, plan);
  }
  if (lone < std::ssize(dropped)) {
    add_stripes(parent, unit, slab, count, false, plan);
  }
  return plan;
}

StripePlan plan_dense_scan(const Shape& parent,
                           std::span<const DimSet> dropped) {
  CUBIST_CHECK(parent.ndim() >= 1, "cannot plan a scan of a scalar");
  // A dense scan is planned as a sparse one whose chunks are its rows.
  std::vector<std::int64_t> row(static_cast<std::size_t>(parent.ndim()), 1);
  row.back() = parent.extent(parent.ndim() - 1);
  return plan_sparse_scan(parent, row, dropped, parent.size());
}

namespace {

ThreadPool& pool_of(const AggregateOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::global();
}

/// The pass of `plan` that feeds `target`: 1 (lone) when it drops the
/// slab dimension, else 0.
int pass_of(const StripePlan& plan, const AggregationTarget& target) {
  return plan.slab_dim >= 0 && target.dropped.contains(plan.slab_dim) ? 1 : 0;
}

/// Runs `scan(stripe, members)` over the plan's stripes on the pool, where
/// `members` indexes the targets the stripe feeds. No child cell takes
/// contributions from two stripes, so concurrent stripes write disjoint
/// cells, and every cell combines its contributions in input order.
template <typename Scan>
void run_stripes(const StripePlan& plan,
                 std::span<const AggregationTarget> targets,
                 const AggregateOptions& options, const Scan& scan) {
  std::array<std::vector<std::size_t>, 2> members;  // [0] keep, [1] lone
  for (std::size_t c = 0; c < targets.size(); ++c) {
    members[pass_of(plan, targets[c])].push_back(c);
  }
  pool_of(options).parallel_for(
      0, std::ssize(plan.stripes), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          const ScanStripe& stripe = plan.stripes[static_cast<std::size_t>(s)];
          scan(stripe, std::span<const std::size_t>(members[stripe.lone]));
        }
      });
}

/// A box of indices, [lo, hi) along each dimension.
struct Box {
  std::vector<std::int64_t> lo;
  std::vector<std::int64_t> hi;
  /// The parent cells `stripe` of a scan of `region` covers: the region,
  /// with the stripe's dimension cut to the stripe.
  static Box of_stripe(const BlockRange& region, const ScanStripe& stripe) {
    Box box;
    for (int d = 0; d < region.ndim(); ++d) {
      const bool cut = d == stripe.dim;
      box.lo.push_back(region.lo(d) + (cut ? stripe.lo : 0));
      box.hi.push_back(cut ? region.lo(d) + stripe.hi : region.hi(d));
    }
    return box;
  }
  /// Advances `idx` over the box's first idx.size() dimensions in
  /// row-major order. Returns the dimension that stepped (every later one
  /// wrapped back to lo), or -1 past the last index.
  int next(std::span<std::int64_t> idx) const {
    for (int d = static_cast<int>(idx.size()) - 1; d >= 0; --d) {
      if (++idx[d] < hi[d]) return d;
      idx[d] = lo[d];
    }
    return -1;
  }
  /// Per dimension d < ndim, how a linear index over `strides` changes
  /// when next() steps d: one stride of d, less the wrap of every later
  /// dimension.
  std::vector<std::int64_t> steps(const std::int64_t* strides,
                                  int ndim) const {
    std::vector<std::int64_t> out(static_cast<std::size_t>(ndim));
    std::int64_t wrap = 0;
    for (int d = ndim - 1; d >= 0; --d) {
      out[d] = strides[d] - wrap;
      wrap += (hi[d] - lo[d] - 1) * strides[d];
    }
    return out;
  }
};

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

/// One target's state during a dense stripe scan.
struct ScanTarget {
  Value* base = nullptr;
  /// Child index change per outer-dimension step of the box walk.
  std::vector<std::int64_t> steps;
  /// Child index of the current row's first scanned cell.
  std::int64_t row_start = 0;
};

/// Scans the rows of `box`, a stripe of `region`, in row-major order,
/// combining each scanned cell into every member target in a fixed order,
/// so every child cell combines its contributions in input order. The
/// inner loops are specialized for the dominant cases: a row reduction for
/// a target that drops the innermost dimension (delta 0), which only ever
/// scans whole rows of the region and combines them into its cell in
/// place, and contiguous elementwise combines for every other target
/// (delta 1), issued jointly for up to three targets so the parent row is
/// read once.
template <typename P>
void scan_dense_stripe(const DenseArray& parent, const Box& box,
                       const BlockRange& region,
                       std::span<const AggregationTarget> targets,
                       const std::vector<std::vector<std::int64_t>>& strides,
                       std::span<const std::size_t> members) {
  const Shape& shape = parent.shape();
  const int m = shape.ndim();
  const int od = m - 1;  // the box walk's outer dimensions; rows span m - 1
  const std::int64_t width = box.hi[od] - box.lo[od];
  std::vector<ScanTarget> scan_targets(members.size());
  // Split targets by inner-dimension delta: 0 = row reduction, 1 = combine.
  std::vector<ScanTarget*> reduce_targets;
  std::vector<ScanTarget*> vec_targets;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::vector<std::int64_t>& target_strides = strides[members[i]];
    ScanTarget& t = scan_targets[i];
    t.base = targets[members[i]].child->data();
    t.steps = box.steps(target_strides.data(), od);
    for (int d = 0; d < m; ++d) {
      t.row_start += (box.lo[d] - region.lo(d)) * target_strides[d];
    }
    const std::int64_t delta = target_strides[od];
    CUBIST_DCHECK(delta == 0 || delta == 1,
                  "inner-dimension child stride must be 0 or 1, got "
                      << delta);
    (delta == 0 ? reduce_targets : vec_targets).push_back(&t);
  }
  CUBIST_DCHECK(reduce_targets.empty() || width == region.extent(od),
                "a row reduction scans whole rows");
  const std::vector<std::int64_t> cell_steps =
      box.steps(shape.strides().data(), od);
  std::vector<std::int64_t> idx(box.lo.begin(), box.lo.end() - 1);
  const Value* in = parent.data() + shape.linear_index(box.lo.data());
  for (;;) {
    for (ScanTarget* t : reduce_targets) {
      // From the cell's current value, left to right: a cell that takes
      // several rows combines them in input order.
      Value acc = t->base[t->row_start];
      for (std::int64_t i = 0; i < width; ++i) {
        P::combine(acc, P::contribution(in[i]));
      }
      t->base[t->row_start] = acc;
    }
    switch (vec_targets.size()) {
      case 0:
        break;
      case 1: {
        Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
        for (std::int64_t i = 0; i < width; ++i) {
          P::combine(o0[i], P::contribution(in[i]));
        }
        break;
      }
      case 2: {
        Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
        Value* o1 = vec_targets[1]->base + vec_targets[1]->row_start;
        for (std::int64_t i = 0; i < width; ++i) {
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
        for (std::int64_t i = 0; i < width; ++i) {
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
          for (std::int64_t i = 0; i < width; ++i) {
            P::combine(out[i], P::contribution(in[i]));
          }
        }
        break;
    }
    const int d = box.next(idx);
    if (d < 0) break;
    in += cell_steps[d];
    for (ScanTarget& t : scan_targets) t.row_start += t.steps[d];
  }
}

template <typename P>
AggregationStats aggregate_dense(const DenseArray& parent,
                                 std::span<const AggregationTarget> targets,
                                 const AggregateOptions& options,
                                 const BlockRange& region) {
  const std::vector<std::vector<std::int64_t>> strides =
      all_projection_strides(region, targets);
  const AggregationStats stats{
      region.size(), region.size() * std::ssize(targets), 0};
  if (parent.ndim() == 0) {
    // A scalar parent is one cell, which every target copies.
    for (const AggregationTarget& target : targets) {
      P::combine(target.child->data()[0], P::contribution(parent[0]));
    }
    return stats;
  }
  const StripePlan plan =
      plan_dense_scan(region.local_shape(), dropped_sets(targets));
  run_stripes(plan, targets, options,
              [&](const ScanStripe& stripe,
                  std::span<const std::size_t> members) {
                scan_dense_stripe<P>(parent, Box::of_stripe(region, stripe),
                                     region, targets, strides, members);
              });
  return stats;
}

}  // namespace

std::int64_t scan_scratch_bound(const Shape& region,
                                std::span<const DimSet> dropped) {
  std::int64_t total_child_bytes = 0;
  for (const DimSet set : dropped) {
    CUBIST_CHECK(set.is_subset_of(DimSet::full(region.ndim())),
                 "aggregated position out of range in " << set.to_string());
    std::int64_t child_cells = 1;
    for (int d = 0; d < region.ndim(); ++d) {
      if (!set.contains(d)) child_cells *= region.extent(d);
    }
    total_child_bytes += child_cells * static_cast<std::int64_t>(sizeof(Value));
  }
  return std::min(kScanScratchBudgetBytes, total_child_bytes);
}

AggregationStats aggregate_children(const DenseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const BlockRange& region,
                                    const AggregateOptions& options,
                                    AggregateOp op, bool input_level) {
  if (targets.empty() || parent.size() == 0) return {};
  check_region(parent.shape(), region);
  return with_policy(op, input_level, [&](auto policy) {
    return aggregate_dense<decltype(policy)>(parent, targets, options,
                                             region);
  });
}

namespace {

/// Scans the chunks that meet `box`, a stripe of `region`, in chunk order,
/// combining each of its non-zeros in the box into every member target in
/// offset order, and returns how many it combined. Of a chunk the box
/// cuts, it reads one run of cells per index of the dimensions before the
/// innermost one the box cuts in that chunk, in ascending order. The
/// chunk's positions hand out ascending offsets a batch at a time, from
/// its list or decoded from its bitmap. A chunk picks the batch loop of
/// its values' form, raw or coded, once; every form combines the same
/// contributions in the same order.
template <typename P>
std::int64_t scan_sparse_stripe(
    const SparseArray& parent, const Box& box, const BlockRange& region,
    std::span<const AggregationTarget> targets,
    const std::vector<std::vector<std::int64_t>>& strides,
    const std::vector<std::vector<std::int32_t>>& offset_table,
    std::span<const std::size_t> members) {
  const std::vector<std::int64_t>& unit = parent.chunk_extents();
  const int m = parent.ndim();
  Box chunks = box;  // the chunks that meet the box
  for (int d = 0; d < m; ++d) {
    chunks.lo[d] = box.lo[d] / unit[d];
    chunks.hi[d] = ceil_div(box.hi[d], unit[d]);
  }
  const std::size_t num_targets = members.size();
  const bool tabled = !offset_table[members.front()].empty();
  std::vector<Value*> bases(num_targets);
  std::vector<const std::int64_t*> target_strides(num_targets);
  std::vector<const std::int32_t*> tables(num_targets);
  for (std::size_t i = 0; i < num_targets; ++i) {
    bases[i] = targets[members[i]].child->data();
    target_strides[i] = strides[members[i]].data();
    tables[i] = offset_table[members[i]].data();
  }
  const std::int64_t full_volume = checked_product(unit);
  std::vector<std::int64_t> chunk(chunks.lo);
  std::vector<std::int64_t> extents(static_cast<std::size_t>(m));
  std::vector<std::int64_t> local_strides(static_cast<std::size_t>(m));
  Box cells = box;  // the chunk's cells in the box, counted from its origin
  std::vector<std::int64_t> outer(static_cast<std::size_t>(m));
  std::vector<std::int64_t> local(static_cast<std::size_t>(m));
  std::vector<std::int64_t> base_ci(num_targets);
  std::vector<std::int64_t> row_ci(num_targets);
  std::array<Value, SparseArray::kMaxCodes> contributions{};
  std::int64_t combined = 0;
  do {
    const std::int64_t id = parent.chunk_grid().linear_index(chunk.data());
    const SparseArray::ChunkPositions positions = parent.chunk_positions(id);
    if (positions.empty()) continue;
    std::int64_t volume = 1;
    int cut = -1;  // the innermost dimension the box cuts in this chunk
    for (int d = m - 1; d >= 0; --d) {
      const std::int64_t origin = chunk[d] * unit[d];
      extents[d] = std::min(unit[d], parent.shape().extent(d) - origin);
      local_strides[d] = volume;
      volume *= extents[d];
      cells.lo[d] = std::max<std::int64_t>(box.lo[d] - origin, 0);
      cells.hi[d] = std::min(box.hi[d] - origin, extents[d]);
      if (cut < 0 && (cells.lo[d] > 0 || cells.hi[d] < extents[d])) cut = d;
    }
    for (std::size_t i = 0; i < num_targets; ++i) {
      base_ci[i] = 0;
      for (int d = 0; d < m; ++d) {
        base_ci[i] +=
            (chunk[d] * unit[d] - region.lo(d)) * target_strides[i][d];
      }
    }
    const bool table = tabled && volume == full_volume;
    // The chunk's runs of cells, for either form of its values:
    // contribution_at(n) is the n-th non-zero's contribution.
    const auto scan_chunk = [&](auto contribution_at) {
      // One batch of ascending offsets, the first of rank `rank`. Both
      // loops read locals, not captures: where the compiler does not
      // inline this lambda, a load through a captured reference repeats
      // per non-zero.
      const auto combine_batch = [&](std::span<const SparseArray::Offset>
                                         offsets,
                                     std::size_t rank) {
        Value* const* const out = bases.data();
        const std::int64_t* const origin = base_ci.data();
        const std::size_t count = num_targets;
        if (table) {
          const std::int32_t* const* const projected = tables.data();
          for (std::size_t k = 0; k < offsets.size(); ++k) {
            const auto off = offsets[k];
            const Value v = contribution_at(rank + k);
            for (std::size_t i = 0; i < count; ++i) {
              P::combine(out[i][origin[i] + projected[i][off]], v);
            }
          }
          return;
        }
        // Decode: offsets ascend, so only a non-zero that starts a new
        // innermost row divides; the rest reuse its row's projections.
        const std::int64_t* const* const stride = target_strides.data();
        const std::int64_t* const chunk_stride = local_strides.data();
        std::int64_t* const at = local.data();
        std::int64_t* const row = row_ci.data();
        const int inner = m - 1;
        const std::int64_t row_cells = extents[inner];
        std::int64_t row_begin = 0;
        std::int64_t row_end = 0;
        for (std::size_t k = 0; k < offsets.size(); ++k) {
          const std::int64_t off = offsets[k];
          if (off >= row_end) {
            std::int64_t rest = off;
            for (int d = 0; d < inner; ++d) {
              at[d] = rest / chunk_stride[d];
              rest -= at[d] * chunk_stride[d];
            }
            row_begin = off - rest;
            row_end = row_begin + row_cells;
            for (std::size_t i = 0; i < count; ++i) {
              row[i] = origin[i];
              for (int d = 0; d < inner; ++d) row[i] += at[d] * stride[i][d];
            }
          }
          const Value v = contribution_at(rank + k);
          for (std::size_t i = 0; i < count; ++i) {
            P::combine(out[i][row[i] + (off - row_begin) * stride[i][inner]],
                       v);
          }
        }
      };
      SparseArray::ChunkPositions::Reader reader(positions);
      const auto combine_cells = [&](std::int64_t lo, std::int64_t hi) {
        reader.seek(lo, hi);
        for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
          combine_batch(batch, reader.rank());
          combined += std::ssize(batch);
        }
      };
      if (cut < 0) {
        combine_cells(0, volume);
        return;
      }
      // The dimensions after `cut` are whole, so each index of the ones
      // before it gives one contiguous run.
      const std::span<std::int64_t> index(outer.data(),
                                          static_cast<std::size_t>(cut));
      std::copy_n(cells.lo.begin(), cut, index.begin());
      const std::int64_t run = (cells.hi[cut] - cells.lo[cut]) *
                               local_strides[cut];
      do {
        std::int64_t start = cells.lo[cut] * local_strides[cut];
        for (int d = 0; d < cut; ++d) start += index[d] * local_strides[d];
        combine_cells(start, start + run);
      } while (cells.next(index) >= 0);
    };
    const SparseArray::ChunkValues values = parent.chunk_values(id);
    if (values.coded()) {
      // A code's contribution is taken once, for its dictionary entry.
      const std::span<const Value> dictionary = values.dictionary();
      for (std::size_t k = 0; k < dictionary.size(); ++k) {
        contributions[k] = P::contribution(dictionary[k]);
      }
      scan_chunk([codes = values.codes().data(),
                  of_code = contributions.data()](std::size_t n) {
        return of_code[codes[n]];
      });
    } else {
      scan_chunk([raw = values.raw().data()](std::size_t n) {
        return P::contribution(raw[n]);
      });
    }
  } while (chunks.next(chunk) >= 0);
  return combined;
}

/// Every full chunk shares the same shape, so the map (within-chunk
/// offset) -> (child index contribution) is chunk-invariant. Built once
/// per target, it makes a non-zero of a full chunk cost one table lookup
/// plus one combine per target. An entry is below the child's cell count,
/// so it takes 4 bytes, and only children of fewer than 2^31 cells get
/// tables. Tables are built only for a multi-way scan, one of several
/// targets: a one-target scan is a routed query's projection or a
/// per-child baseline scan, and a table per query would be transient
/// memory that grows with the concurrent queries. They are built only when
/// the scan's work (the smaller of the non-zeros and the region's cells)
/// at least matches a table's entries, and only while all of them fit
/// scan_scratch_bound (at most the bytes of the children they feed): the
/// lone pass, which scans the region a second time, gets its tables first,
/// and the other pass gets its tables if they fit beside them. A target
/// without a table decodes every offset, which combines in the same order.
std::vector<std::vector<std::int32_t>> chunk_offset_table(
    const SparseArray& parent, const Shape& region,
    std::span<const AggregationTarget> targets,
    const std::vector<std::vector<std::int64_t>>& strides,
    const StripePlan& plan, std::int64_t work_cells,
    const AggregateOptions& options) {
  const Shape full_chunk_shape{parent.chunk_extents()};
  const std::int64_t full_volume = full_chunk_shape.size();
  std::vector<std::vector<std::int32_t>> offset_table(targets.size());
  if (targets.size() < 2 || work_cells < full_volume) return offset_table;
  std::array<std::int64_t, 2> pass_targets{};  // [0] keep, [1] lone
  std::array<bool, 2> tabled{true, true};
  for (const AggregationTarget& target : targets) {
    const int pass = pass_of(plan, target);
    ++pass_targets[pass];
    tabled[pass] = tabled[pass] &&
                   target.child->size() <= std::numeric_limits<std::int32_t>::max();
  }
  std::int64_t budget = scan_scratch_bound(region, dropped_sets(targets));
  for (const int pass : {1, 0}) {
    const std::int64_t bytes = pass_targets[pass] * full_volume *
                               static_cast<std::int64_t>(sizeof(std::int32_t));
    tabled[pass] = tabled[pass] && bytes <= budget;
    if (tabled[pass]) budget -= bytes;
  }
  std::vector<std::size_t> built;
  for (std::size_t c = 0; c < targets.size(); ++c) {
    if (!tabled[pass_of(plan, targets[c])]) continue;
    offset_table[c].resize(static_cast<std::size_t>(full_volume));
    built.push_back(c);
  }
  // Each task walks its offsets' coordinates like a scan walks a box.
  const int m = parent.ndim();
  const Box chunk_box{std::vector<std::int64_t>(static_cast<std::size_t>(m)),
                      parent.chunk_extents()};
  pool_of(options).parallel_for(
      0, full_volume, std::int64_t{1} << 14,
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::int64_t> local(static_cast<std::size_t>(m), 0);
        full_chunk_shape.unravel(lo, local.data());
        for (const std::size_t c : built) {
          const std::vector<std::int64_t> steps =
              chunk_box.steps(strides[c].data(), m);
          std::int64_t projected = 0;
          for (int d = 0; d < m; ++d) projected += local[d] * strides[c][d];
          std::vector<std::int64_t> idx = local;
          for (std::int64_t off = lo; off < hi; ++off) {
            offset_table[c][static_cast<std::size_t>(off)] =
                static_cast<std::int32_t>(projected);
            const int d = chunk_box.next(idx);
            if (d >= 0) projected += steps[d];
          }
        }
      });
  return offset_table;
}

template <typename P>
AggregationStats aggregate_sparse(const SparseArray& parent,
                                  std::span<const AggregationTarget> targets,
                                  const AggregateOptions& options,
                                  const BlockRange& region) {
  const std::vector<std::vector<std::int64_t>> strides =
      all_projection_strides(region, targets);
  if (parent.nnz() == 0) return {};
  const Shape extents = region.local_shape();
  const std::int64_t work = std::min(parent.nnz(), region.size());
  const StripePlan plan = plan_sparse_scan(extents, parent.chunk_extents(),
                                           dropped_sets(targets), work);
  const std::vector<std::vector<std::int32_t>> offset_table =
      chunk_offset_table(parent, extents, targets, strides, plan, work,
                         options);
  // Each pass covers the region, so the last one alone counts its
  // non-zeros.
  const bool counted = plan.stripes.back().lone;
  std::atomic<std::int64_t> cells{0};
  run_stripes(plan, targets, options,
              [&](const ScanStripe& stripe,
                  std::span<const std::size_t> members) {
                const std::int64_t combined = scan_sparse_stripe<P>(
                    parent, Box::of_stripe(region, stripe), region, targets,
                    strides, offset_table, members);
                if (stripe.lone == counted) cells += combined;
              });
  std::int64_t table_bytes = 0;
  for (const std::vector<std::int32_t>& table : offset_table) {
    table_bytes += std::ssize(table) *
                   static_cast<std::int64_t>(sizeof(std::int32_t));
  }
  const std::int64_t scanned = cells;
  return {scanned, scanned * std::ssize(targets), table_bytes};
}

}  // namespace

AggregationStats aggregate_children(const SparseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const BlockRange& region,
                                    const AggregateOptions& options,
                                    AggregateOp op) {
  if (targets.empty() || parent.shape().size() == 0) return {};
  CUBIST_CHECK(parent.ndim() >= 1, "cannot aggregate a scalar parent");
  check_region(parent.shape(), region);
  return with_policy(op, /*input_level=*/true, [&](auto policy) {
    return aggregate_sparse<decltype(policy)>(parent, targets, options,
                                              region);
  });
}

}  // namespace cubist
