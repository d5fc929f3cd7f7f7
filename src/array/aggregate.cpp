#include "array/aggregate.h"

#include <algorithm>
#include <array>
#include <limits>
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

/// The outermost dimension other than `skip` that spans several units
/// (rows or chunks); failing that, the outermost one with several cells in
/// one unit; -1 if every other dimension has one cell.
int stripe_dim(const Shape& parent, std::span<const std::int64_t> unit,
               int skip) {
  int within_unit = -1;
  for (int d = 0; d < parent.ndim(); ++d) {
    if (d == skip || parent.extent(d) < 2) continue;
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
                            std::span<const int> positions,
                            std::int64_t work_cells) {
  const int m = parent.ndim();
  CUBIST_CHECK(m >= 1 && static_cast<int>(unit.size()) == m,
               "a scan plan needs one unit extent per parent dimension");
  for (const int a : positions) {
    CUBIST_CHECK(a >= 0 && a < m, "aggregated position out of range");
  }
  const std::int64_t count =
      std::min(kMaxScanStripes, work_cells / kMinCellsPerStripe);
  const int slab = count >= 2 ? stripe_dim(parent, unit, -1) : -1;
  if (slab < 0) return {-1, {{0, 0, parent.extent(0), false}}};
  StripePlan plan{slab, {}};
  const auto lone = std::count(positions.begin(), positions.end(), slab);
  if (lone > 0) {
    // Every cell of the lone child keeps the other dimensions, so its
    // stripes split one of them; with none left, it takes one stripe.
    const int other = stripe_dim(parent, unit, slab);
    add_stripes(parent, unit, other < 0 ? slab : other, other < 0 ? 1 : count,
                true, plan);
  }
  if (lone < std::ssize(positions)) {
    add_stripes(parent, unit, slab, count, false, plan);
  }
  return plan;
}

StripePlan plan_dense_scan(const Shape& parent,
                           std::span<const int> aggregated_positions) {
  CUBIST_CHECK(parent.ndim() >= 1, "cannot plan a scan of a scalar");
  // A dense scan is planned as a sparse one whose chunks are its rows.
  std::vector<std::int64_t> row(static_cast<std::size_t>(parent.ndim()), 1);
  row.back() = parent.extent(parent.ndim() - 1);
  return plan_sparse_scan(parent, row, aggregated_positions, parent.size());
}

namespace {

ThreadPool& pool_of(const AggregateOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::global();
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
    members[targets[c].aggregated_pos == plan.slab_dim ? 1 : 0].push_back(c);
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

/// The box of indices a stripe covers: every index of `extents`, with
/// dimension `dim` cut to [lo, hi).
struct Box {
  std::vector<std::int64_t> lo;
  std::vector<std::int64_t> hi;
  Box(const std::vector<std::int64_t>& extents, int dim, std::int64_t lo_dim,
      std::int64_t hi_dim)
      : lo(extents.size(), 0), hi(extents) {
    lo[static_cast<std::size_t>(dim)] = lo_dim;
    hi[static_cast<std::size_t>(dim)] = hi_dim;
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

/// Scans the rows of `stripe` in row-major order, combining each scanned
/// cell into every member target in a fixed order, so every child cell
/// combines its contributions in input order. The inner loops are
/// specialized for the dominant cases: a row reduction for the
/// innermost-dimension target (delta 0), which only ever scans whole
/// rows, and contiguous elementwise combines for every other target
/// (delta 1), issued jointly for up to three targets so the parent row is
/// read once.
template <typename P>
void scan_dense_stripe(const DenseArray& parent, const ScanStripe& stripe,
                       std::span<const AggregationTarget> targets,
                       const std::vector<std::vector<std::int64_t>>& strides,
                       std::span<const std::size_t> members) {
  const Shape& shape = parent.shape();
  const int m = shape.ndim();
  const Box box(shape.extents(), stripe.dim, stripe.lo, stripe.hi);
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
    for (int d = 0; d < m; ++d) t.row_start += box.lo[d] * target_strides[d];
    const std::int64_t delta = target_strides[od];
    CUBIST_DCHECK(delta == 0 || delta == 1,
                  "inner-dimension child stride must be 0 or 1, got "
                      << delta);
    (delta == 0 ? reduce_targets : vec_targets).push_back(&t);
  }
  CUBIST_DCHECK(reduce_targets.empty() || width == shape.extent(od),
                "a row reduction scans whole rows");
  const std::vector<std::int64_t> cell_steps =
      box.steps(shape.strides().data(), od);
  std::vector<std::int64_t> idx(box.lo.begin(), box.lo.end() - 1);
  const Value* in = parent.data() + shape.linear_index(box.lo.data());
  for (;;) {
    if (!reduce_targets.empty()) {
      Value acc = P::kIdentity;  // fixed left-to-right order: deterministic
      for (std::int64_t i = 0; i < width; ++i) {
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
  if (parent.size() == 0) return {};
  const StripePlan plan =
      plan_dense_scan(parent.shape(), target_positions(targets));
  run_stripes(plan, targets, options,
              [&](const ScanStripe& stripe,
                  std::span<const std::size_t> members) {
                scan_dense_stripe<P>(parent, stripe, targets, strides,
                                     members);
              });
  return {parent.size(),
          parent.size() * static_cast<std::int64_t>(targets.size()), 0};
}

}  // namespace

std::int64_t scan_scratch_bound(const Shape& parent,
                                std::span<const int> aggregated_positions) {
  std::int64_t total_child_bytes = 0;
  for (const int a : aggregated_positions) {
    CUBIST_CHECK(a >= 0 && a < parent.ndim(),
                 "aggregated position out of range");
    total_child_bytes += parent.size() / parent.extent(a) *
                         static_cast<std::int64_t>(sizeof(Value));
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

/// Scans the chunks `stripe` touches in chunk order, combining each of
/// its non-zeros into every member target in offset order. A chunk the
/// stripe cuts gives one range of cells per index of its dimensions before
/// the cut one. The chunk's positions hand out ascending offsets a batch at
/// a time, from its list or decoded from its bitmap. A chunk picks the
/// batch loop of its values' form, raw or coded, once; every form combines
/// the same contributions in the same order.
template <typename P>
void scan_sparse_stripe(
    const SparseArray& parent, const ScanStripe& stripe,
    std::span<const AggregationTarget> targets,
    const std::vector<std::vector<std::int64_t>>& strides,
    const std::vector<std::vector<std::int32_t>>& offset_table,
    std::span<const std::size_t> members) {
  const Shape& grid = parent.chunk_grid();
  const std::vector<std::int64_t>& unit = parent.chunk_extents();
  const int m = parent.ndim();
  const int dim = stripe.dim;
  const Box box(grid.extents(), dim, stripe.lo / unit[dim],
                ceil_div(stripe.hi, unit[dim]));
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
  std::vector<std::int64_t> chunk(box.lo);
  std::vector<std::int64_t> extents(static_cast<std::size_t>(m));
  std::vector<std::int64_t> local_strides(static_cast<std::size_t>(m));
  std::vector<std::int64_t> local(static_cast<std::size_t>(m));
  std::vector<std::int64_t> base_ci(num_targets);
  std::vector<std::int64_t> row_ci(num_targets);
  std::array<Value, SparseArray::kMaxCodes> contributions{};
  do {
    const std::int64_t id = grid.linear_index(chunk.data());
    const SparseArray::ChunkPositions positions = parent.chunk_positions(id);
    if (positions.empty()) continue;
    std::int64_t volume = 1;
    for (int d = m - 1; d >= 0; --d) {
      extents[d] =
          std::min(unit[d], parent.shape().extent(d) - chunk[d] * unit[d]);
      local_strides[d] = volume;
      volume *= extents[d];
    }
    for (std::size_t i = 0; i < num_targets; ++i) {
      base_ci[i] = 0;
      for (int d = 0; d < m; ++d) {
        base_ci[i] += chunk[d] * unit[d] * target_strides[i][d];
      }
    }
    const bool table = tabled && volume == full_volume;
    // The chunk's cell ranges, for either form of its values:
    // contribution_at(n) is the n-th non-zero's contribution.
    const auto scan_chunk = [&](auto contribution_at) {
      // One batch of ascending offsets, the first of rank `rank`.
      const auto combine_batch = [&](std::span<const SparseArray::Offset>
                                         offsets,
                                     std::size_t rank) {
        if (table) {
          // Locals, not captures: where the compiler does not inline this
          // lambda, a load through a captured reference repeats per
          // non-zero.
          Value* const* const out = bases.data();
          const std::int64_t* const origin = base_ci.data();
          const std::int32_t* const* const projected = tables.data();
          const std::size_t count = num_targets;
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
        std::int64_t row_begin = 0;
        std::int64_t row_end = 0;
        for (std::size_t k = 0; k < offsets.size(); ++k) {
          const std::int64_t off = offsets[k];
          if (off >= row_end) {
            std::int64_t rest = off;
            for (int d = 0; d < m - 1; ++d) {
              local[d] = rest / local_strides[d];
              rest -= local[d] * local_strides[d];
            }
            row_begin = off - rest;
            row_end = row_begin + extents[m - 1];
            for (std::size_t i = 0; i < num_targets; ++i) {
              row_ci[i] = base_ci[i];
              for (int d = 0; d < m - 1; ++d) {
                row_ci[i] += local[d] * target_strides[i][d];
              }
            }
          }
          const Value v = contribution_at(rank + k);
          for (std::size_t i = 0; i < num_targets; ++i) {
            P::combine(bases[i][row_ci[i] + (off - row_begin) *
                                                target_strides[i][m - 1]],
                       v);
          }
        }
      };
      SparseArray::ChunkPositions::Reader reader(positions);
      const auto combine_cells = [&](std::int64_t lo, std::int64_t hi) {
        reader.seek(lo, hi);
        for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
          combine_batch(batch, reader.rank());
        }
      };
      const std::int64_t origin = chunk[dim] * unit[dim];
      const std::int64_t first = std::max<std::int64_t>(stripe.lo - origin, 0);
      const std::int64_t last = std::min(stripe.hi - origin, extents[dim]);
      if (first == 0 && last == extents[dim]) {
        combine_cells(0, volume);
        return;
      }
      const std::int64_t inner = local_strides[dim];
      for (std::int64_t row = 0; row < volume; row += extents[dim] * inner) {
        combine_cells(row + first * inner, row + last * inner);
      }
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
  } while (box.next(chunk) >= 0);
}

/// Every interior chunk shares the same shape, so the map (within-chunk
/// offset) -> (child index contribution) is chunk-invariant. Built once
/// per target, it makes an interior non-zero cost one table lookup plus
/// one combine per target. An entry is below the child's cell count, so
/// it takes 4 bytes, and only children of fewer than 2^31 cells get
/// tables. Tables are built only when the non-zeros at least match a
/// table's entries, and only while all of them fit scan_scratch_bound (at
/// most the bytes of the children they feed): the lone target's pass,
/// which scans the parent a second time for one target, gets its table
/// first, and the other pass gets its tables if they fit beside it. A
/// target without a table decodes every offset, which combines in the same
/// order.
std::vector<std::vector<std::int32_t>> chunk_offset_table(
    const SparseArray& parent, std::span<const AggregationTarget> targets,
    const std::vector<std::vector<std::int64_t>>& strides,
    const StripePlan& plan, const AggregateOptions& options) {
  const Shape full_chunk_shape{parent.chunk_extents()};
  const std::int64_t full_volume = full_chunk_shape.size();
  std::vector<std::vector<std::int32_t>> offset_table(targets.size());
  if (parent.nnz() < full_volume) return offset_table;
  std::array<std::int64_t, 2> pass_targets{};  // [0] keep, [1] lone
  std::array<bool, 2> tabled{true, true};
  for (const AggregationTarget& target : targets) {
    const int pass = target.aggregated_pos == plan.slab_dim ? 1 : 0;
    ++pass_targets[pass];
    tabled[pass] = tabled[pass] &&
                   target.child->size() <= std::numeric_limits<std::int32_t>::max();
  }
  std::int64_t budget =
      scan_scratch_bound(parent.shape(), target_positions(targets));
  for (const int pass : {1, 0}) {
    const std::int64_t bytes = pass_targets[pass] * full_volume *
                               static_cast<std::int64_t>(sizeof(std::int32_t));
    tabled[pass] = tabled[pass] && bytes <= budget;
    if (tabled[pass]) budget -= bytes;
  }
  std::vector<std::size_t> built;
  for (std::size_t c = 0; c < targets.size(); ++c) {
    if (!tabled[targets[c].aggregated_pos == plan.slab_dim ? 1 : 0]) continue;
    offset_table[c].resize(static_cast<std::size_t>(full_volume));
    built.push_back(c);
  }
  // Each task walks its offsets' coordinates like a scan walks a box.
  const int m = parent.ndim();
  const Box chunk_box(parent.chunk_extents(), 0, 0, parent.chunk_extents()[0]);
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
                                  const AggregateOptions& options) {
  const std::vector<std::vector<std::int64_t>> strides =
      all_projection_strides(parent.shape(), targets);
  if (parent.nnz() == 0) return {};
  const StripePlan plan =
      plan_sparse_scan(parent.shape(), parent.chunk_extents(),
                       target_positions(targets), parent.nnz());
  const std::vector<std::vector<std::int32_t>> offset_table =
      chunk_offset_table(parent, targets, strides, plan, options);
  run_stripes(plan, targets, options,
              [&](const ScanStripe& stripe,
                  std::span<const std::size_t> members) {
                scan_sparse_stripe<P>(parent, stripe, targets, strides,
                                      offset_table, members);
              });
  std::int64_t table_bytes = 0;
  for (const std::vector<std::int32_t>& table : offset_table) {
    table_bytes += std::ssize(table) *
                   static_cast<std::int64_t>(sizeof(std::int32_t));
  }
  return {parent.nnz(),
          parent.nnz() * static_cast<std::int64_t>(targets.size()),
          table_bytes};
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

/// Out-array stride of each parent dimension (0 for aggregated-away ones)
/// for a projection of `region`, checked to lie in the parent, into `out`.
std::vector<std::int64_t> region_strides(const Shape& parent_shape,
                                         const BlockRange& region,
                                         const std::vector<int>& kept_positions,
                                         const DenseArray& out) {
  const int m = parent_shape.ndim();
  CUBIST_CHECK(region.ndim() == m, "region rank mismatch");
  for (int d = 0; d < m; ++d) {
    CUBIST_CHECK(region.hi(d) <= parent_shape.extent(d),
                 "region outside the parent in dim " << d);
  }
  std::vector<std::int64_t> expected;
  for (std::size_t i = 0; i < kept_positions.size(); ++i) {
    const int pos = kept_positions[i];
    CUBIST_CHECK(pos >= 0 && pos < m, "kept position out of range");
    CUBIST_CHECK(i == 0 || kept_positions[i - 1] < pos,
                 "kept positions must be strictly ascending");
    expected.push_back(region.extent(pos));
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

AggregationStats project(const DenseArray& parent, const BlockRange& region,
                         const std::vector<int>& kept_positions,
                         DenseArray* out) {
  CUBIST_CHECK(out != nullptr, "null projection output");
  const std::vector<std::int64_t> strides =
      region_strides(parent.shape(), region, kept_positions, *out);
  // The region's rows in row-major order: `index` walks the outer
  // dimensions, and a row's cells are contiguous in the parent (a scalar
  // parent is one row of one cell).
  const int m = parent.ndim();
  const std::int64_t row = m > 0 ? region.extent(m - 1) : 1;
  const std::int64_t step = m > 0 ? strides.back() : 0;
  Value* dst = out->data();
  std::vector<std::int64_t> index(static_cast<std::size_t>(m));
  for (int d = 0; d < m; ++d) index[d] = region.lo(d);
  while (true) {
    const Value* src = parent.data() + parent.shape().linear_index(index.data());
    Value* to = dst;
    for (int d = 0; d < m; ++d) to += (index[d] - region.lo(d)) * strides[d];
    for (std::int64_t i = 0; i < row; ++i) to[i * step] += src[i];
    int d = m - 2;
    for (; d >= 0 && ++index[d] == region.hi(d); --d) index[d] = region.lo(d);
    if (d < 0) break;
  }
  return {region.size(), region.size(), 0};
}

AggregationStats project(const SparseArray& parent, const BlockRange& region,
                         const std::vector<int>& kept_positions,
                         DenseArray* out) {
  CUBIST_CHECK(out != nullptr, "null projection output");
  const std::vector<std::int64_t> strides =
      region_strides(parent.shape(), region, kept_positions, *out);
  const int m = parent.ndim();
  // Only the dimensions the region cuts are tested, and the offset of the
  // region's low corner starts each projected offset.
  std::vector<int> cut;
  std::int64_t corner = 0;
  for (int d = 0; d < m; ++d) {
    if (region.extent(d) < parent.shape().extent(d)) cut.push_back(d);
    corner -= region.lo(d) * strides[d];
  }
  Value* dst = out->data();
  AggregationStats stats;
  parent.for_each_nonzero([&](const std::int64_t* index, Value value) {
    ++stats.cells_scanned;
    for (int d : cut) {
      if (index[d] < region.lo(d) || index[d] >= region.hi(d)) return;
    }
    std::int64_t projected = corner;
    for (int d = 0; d < m; ++d) projected += index[d] * strides[d];
    dst[projected] += value;
    ++stats.updates;
  });
  return stats;
}

}  // namespace cubist
