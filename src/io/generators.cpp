#include "io/generators.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/error.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "io/keep_bits.h"

namespace cubist {

namespace keep_bits {

std::uint64_t scalar(std::uint64_t seed, std::uint64_t threshold,
                     std::uint64_t first, int count) {
  std::uint64_t mask = 0;
  for (int i = 0; i < count; ++i) {
    const bool keep =
        cell_hash(seed, first + static_cast<std::uint64_t>(i)) < threshold;
    mask |= static_cast<std::uint64_t>(keep) << i;
  }
  return mask;
}

#if defined(__x86_64__)

/// cell_hash's first product, index x golden, advances by 8 x golden a
/// step, so a step multiplies twice where cell_hash multiplies three times.
/// The arithmetic is on GCC vector types: GCC 12's shift intrinsics read an
/// undefined vector and trip -Wmaybe-uninitialized.
__attribute__((target("avx512f,avx512dq"))) std::uint64_t avx512(
    std::uint64_t seed, std::uint64_t threshold, std::uint64_t first,
    int count) {
  using Lanes = std::uint64_t __attribute__((vector_size(64)));
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const Lanes limit = Lanes{} + threshold;
  Lanes product = Lanes{0, 1, 2, 3, 4, 5, 6, 7} * kGolden + first * kGolden;
  std::uint64_t mask = 0;
  for (int i = 0; i < count; i += 8) {
    Lanes z = product ^ (seed ^ 0xd1b54a32d192ed03ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    mask |= std::uint64_t{_mm512_cmplt_epu64_mask(__m512i(z), __m512i(limit))}
            << i;
    product += 8 * kGolden;
  }
  return mask & (~std::uint64_t{0} >> (64 - count));
}

bool has_avx512dq() {
  // A static initializer may run before libgcc's own CPU detection.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

#else

// No vector path off x86-64: has_avx512dq() is false, so generation never
// calls this.
std::uint64_t avx512(std::uint64_t seed, std::uint64_t threshold,
                     std::uint64_t first, int count) {
  return scalar(seed, threshold, first, count);
}

bool has_avx512dq() { return false; }

#endif

}  // namespace keep_bits

namespace {

/// The uniform keep test's path, picked once, at start-up.
const bool kVectorKeep = keep_bits::has_avx512dq();

constexpr std::uint64_t kValueSalt = 0x5eed5a17u;
/// Cells one generation task walks at least (several small chunks share one).
constexpr std::int64_t kCellsPerTask = std::int64_t{1} << 14;
/// Cells whose keep tests fold into one mask word.
constexpr std::int64_t kMaskCells = 64;

/// The population rule shared by all generators. A cell is kept when
/// cell_hash(seed, global linear index) < p x 2^64, and always when p = 1;
/// p is the density, under the Zipf skew times a calibrated multiplier and
/// the weights of the cell's coordinates, clamped to 1. A kept cell's value
/// is a second hash of its index. Both are pure functions of the spec and
/// the cell, so every partition of the array sees the same cells.
class CellRule {
 public:
  explicit CellRule(const SparseSpec& spec)
      : seed_(spec.seed), density_(spec.density) {
    CUBIST_CHECK(spec.density >= 0.0 && spec.density <= 1.0,
                 "density must be in [0,1]");
    keep_all_ = density_ >= 1.0;
    threshold_ = keep_all_ ? 0 : threshold_of(density_);
    if (spec.zipf_theta > 0.0) {
      weights_.reserve(spec.sizes.size());
      for (std::int64_t extent : spec.sizes) {
        std::vector<double> w(static_cast<std::size_t>(extent));
        double sum = 0.0;
        for (std::int64_t i = 0; i < extent; ++i) {
          w[static_cast<std::size_t>(i)] =
              1.0 / std::pow(static_cast<double>(i + 1), spec.zipf_theta);
          sum += w[static_cast<std::size_t>(i)];
        }
        // Normalize to mean 1.
        const double scale = static_cast<double>(extent) / sum;
        for (double& x : w) x *= scale;
        weights_.push_back(std::move(w));
      }
      calibrate_multiplier(spec);
    }
  }

  /// True under the Zipf skew, where a cell's p depends on its
  /// coordinates.
  bool skewed() const { return !weights_.empty(); }

  /// The Zipf p of a row's cells before the inner weight: the density
  /// times the multiplier and the weights of `outer` (the row's first
  /// n - 1 coordinates), multiplied left to right.
  double row_density(const std::int64_t* outer) const {
    double p = density_ * multiplier_;
    for (std::size_t d = 0; d + 1 < weights_.size(); ++d) {
      p *= weights_[d][static_cast<std::size_t>(outer[d])];
    }
    return p;
  }

  /// Bit i is set when the cell at global index `first + i` is kept, for
  /// i < count, 1 <= count <= 64. Under the skew the cells lie in one row
  /// of the last dimension: the first has inner coordinate `inner`, and
  /// `row_p` is the row's row_density(); the uniform rule reads neither.
  /// No branch depends on a cell's hash (hence `|`, not `||`): one taken
  /// for a quarter of the cells, as at 25% density, mispredicts often.
  std::uint64_t keep_mask(double row_p, std::uint64_t first,
                          std::int64_t inner, int count) const {
    if (!skewed()) {
      if (keep_all_) return ~std::uint64_t{0} >> (kMaskCells - count);
      return kVectorKeep ? keep_bits::avx512(seed_, threshold_, first, count)
                         : keep_bits::scalar(seed_, threshold_, first, count);
    }
    std::uint64_t mask = 0;
    const double* inner_weights =
        weights_.back().data() + static_cast<std::size_t>(inner);
    for (int i = 0; i < count; ++i) {
      const double p = std::min(row_p * inner_weights[i], 1.0);
      const bool sure = p >= 1.0;
      const bool keep =
          sure | (cell_hash(seed_, first + static_cast<std::uint64_t>(i)) <
                  threshold_of(sure ? 0.0 : p));
      mask |= static_cast<std::uint64_t>(keep) << i;
    }
    return mask;
  }

  /// Value of the kept cell at `global_index`: 1..9.
  Value value(std::uint64_t global_index) const {
    return static_cast<Value>(1 + cell_hash(seed_ ^ kValueSalt, global_index) %
                                      9);
  }

 private:
  /// p x 2^64 as an integer, for p < 1 (at p = 1 the conversion overflows).
  static std::uint64_t threshold_of(double p) {
    return static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
  }

  /// Clamping min(1, p) loses mass when the skew pushes p above 1, so the
  /// raw expected density falls short of the target. Calibrate a scalar
  /// multiplier on a fixed deterministic cell sample (a pure function of
  /// the spec, so partition invariance is preserved) such that the clamped
  /// mean hits the target density.
  void calibrate_multiplier(const SparseSpec& spec) {
    if (density_ <= 0.0) return;
    constexpr int kSamples = 4096;
    std::vector<double> products(kSamples);
    SplitMix64 mix(spec.seed ^ 0xCA11B7A7EDULL);
    for (double& product : products) {
      product = 1.0;
      for (std::size_t d = 0; d < weights_.size(); ++d) {
        const auto extent = static_cast<std::uint64_t>(spec.sizes[d]);
        product *= weights_[d][static_cast<std::size_t>(mix.next() % extent)];
      }
    }
    const auto clamped_mean = [&](double multiplier) {
      double sum = 0.0;
      for (double product : products) {
        sum += std::min(1.0, density_ * multiplier * product);
      }
      return sum / kSamples;
    };
    if (clamped_mean(1.0) >= density_) return;  // mild skew: no clamping bite
    double lo = 1.0;
    double hi = 2.0;
    while (clamped_mean(hi) < density_ && hi < 1e12) {
      hi *= 2.0;
    }
    for (int iteration = 0; iteration < 60; ++iteration) {
      const double mid = 0.5 * (lo + hi);
      (clamped_mean(mid) < density_ ? lo : hi) = mid;
    }
    multiplier_ = 0.5 * (lo + hi);
  }

  std::uint64_t seed_;
  double density_;
  /// The uniform rule's p >= 1 test and p x 2^64, decided once.
  bool keep_all_ = false;
  std::uint64_t threshold_ = 0;
  double multiplier_ = 1.0;
  std::vector<std::vector<double>> weights_;
};

std::vector<std::int64_t> chunks_or_default(const SparseSpec& spec) {
  return spec.chunk_extents.empty() ? default_chunks(spec.sizes)
                                    : spec.chunk_extents;
}

}  // namespace

std::vector<std::int64_t> default_chunks(
    const std::vector<std::int64_t>& sizes) {
  std::vector<std::int64_t> chunks(sizes.size());
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    chunks[d] = std::min<std::int64_t>(16, sizes[d]);
  }
  // Each factor is at most 16 and the product stops past the cap, so it
  // cannot overflow however many dimensions there are.
  const auto fits = [&chunks] {
    std::int64_t cells = 1;
    for (const std::int64_t extent : chunks) {
      cells *= extent;
      if (cells > SparseArray::kMaxChunkCells) return false;
    }
    return true;
  };
  // Halving the outer dimensions, dimension 0 first, keeps rows long.
  for (std::size_t d = 0; d < chunks.size() && !fits();) {
    if (chunks[d] == 1) {
      ++d;
    } else {
      chunks[d] = (chunks[d] + 1) / 2;
    }
  }
  return chunks;
}

SparseArray generate_sparse_global(const SparseSpec& spec) {
  const Shape shape{spec.sizes};
  const BlockRange whole(std::vector<std::int64_t>(spec.sizes.size(), 0),
                         spec.sizes);
  return generate_sparse_block(spec, whole);
}

SparseArray generate_sparse_block(const SparseSpec& spec,
                                  const BlockRange& block) {
  const Shape global_shape{spec.sizes};
  const int n = global_shape.ndim();
  CUBIST_CHECK(n >= 1 && block.ndim() == n, "block rank mismatch");
  for (int d = 0; d < n; ++d) {
    CUBIST_CHECK(block.hi(d) <= global_shape.extent(d),
                 "block " << block.to_string() << " exceeds the array in dim "
                          << d);
  }
  const CellRule rule(spec);

  SparseArray out(block.local_shape(), chunks_or_default(spec));
  // One task per chunk: it walks the chunk's own cells in row-major order,
  // so its offsets ascend by construction, and writes only its own chunk.
  const std::int64_t grain = std::max<std::int64_t>(
      1, kCellsPerTask / checked_product(out.chunk_extents()));
  ThreadPool::global().parallel_for(
      0, out.num_chunks(), grain, [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::int64_t> coords(static_cast<std::size_t>(n));
        std::vector<std::int64_t> origin(static_cast<std::size_t>(n));
        std::vector<std::int64_t> gidx(static_cast<std::size_t>(n));
        // The task's kept cells, grown a mask word at a time (never a cell
        // at a time) and reused from chunk to chunk.
        std::vector<SparseArray::Offset> offsets;
        std::vector<Value> values;
        // Each segment of a mask word (below): its first global index less
        // its first bit, so the word's bit b in segment s is the cell
        // firsts[s] + b.
        std::array<std::uint64_t, kMaskCells> firsts{};
        for (std::int64_t chunk_id = lo; chunk_id < hi; ++chunk_id) {
          out.chunk_grid().unravel(chunk_id, coords.data());
          const std::vector<std::int64_t> base = out.chunk_base(coords);
          const std::vector<std::int64_t> extents = out.chunk_shape_at(coords);
          for (int d = 0; d < n; ++d) {
            origin[d] = block.lo(d) + base[d];
            gidx[d] = origin[d];
          }
          offsets.clear();
          values.clear();
          // A row is the chunk's cells in dimensions [row_dim, n). The
          // chunk spans every dimension after row_dim whole, as the array
          // does, so they have consecutive global indices and the uniform
          // rule takes them as one row. Under the Zipf skew a row stays
          // one dimension long: its cells' p differ.
          int row_dim = n - 1;
          while (!rule.skewed() && row_dim > 0 &&
                 extents[row_dim] == global_shape.extent(row_dim)) {
            --row_dim;
          }
          std::int64_t row_length = 1;
          for (int d = row_dim; d < n; ++d) row_length *= extents[d];
          // A mask word takes segments of min(64, row_length) cells while
          // the next one fits: 64 / row_length whole rows when a row holds
          // at most 32 cells, else 64 cells of one row at a time (a row's
          // last segment may be shorter, and fills its word alone). The
          // rows follow each other in the chunk, so bit b of a word is the
          // chunk's cell word_offset + b; a row can be a whole 2^16-cell
          // chunk, so the offset past the last word does not fit an Offset.
          const int segment =
              static_cast<int>(std::min(kMaskCells, row_length));
          std::int64_t word_offset = 0;
          // The next segment's first cell within its row, the global
          // linear index of that row's first cell, and the row's Zipf p.
          std::int64_t i = 0;
          std::uint64_t row_base = 0;
          double row_p = 0.0;
          for (bool rows_left = true; rows_left;) {
            std::uint64_t mask = 0;
            int used = 0;
            int segments = 0;
            do {
              if (i == 0) {
                // gidx of the row's own dimensions stays at their origin.
                std::int64_t start = origin[n - 1];
                for (int d = 0; d < n - 1; ++d) {
                  start += gidx[d] * global_shape.stride(d);
                }
                row_base = static_cast<std::uint64_t>(start);
                row_p = rule.row_density(gidx.data());
              }
              const int count =
                  static_cast<int>(std::min(kMaskCells, row_length - i));
              const std::uint64_t first =
                  row_base + static_cast<std::uint64_t>(i);
              mask |= rule.keep_mask(row_p, first, origin[n - 1] + i, count)
                      << used;
              firsts[static_cast<std::size_t>(segments++)] =
                  first - static_cast<std::uint64_t>(used);
              used += count;
              i += count;
              if (i == row_length) {
                i = 0;
                int d = row_dim - 1;
                for (; d >= 0; --d) {
                  if (++gidx[d] < origin[d] + extents[d]) break;
                  gidx[d] = origin[d];
                }
                rows_left = d >= 0;
              }
            } while (rows_left &&
                     used + std::min(kMaskCells, row_length - i) <=
                         kMaskCells);
            std::size_t kept = offsets.size();
            const std::size_t size =
                kept + static_cast<std::size_t>(std::popcount(mask));
            if (size > offsets.capacity()) {
              // Powers of two, as push_back's doubling gives, so a task's
              // freed buffers fit the next task's; capacities grown from
              // the size fragment the heap and raise peak RSS.
              offsets.reserve(std::bit_ceil(size));
              values.reserve(std::bit_ceil(size));
            }
            offsets.resize(size);
            values.resize(size);
            // Segment s holds bits [s x segment, (s + 1) x segment): walking
            // `end` across the segments finds each kept cell's row without a
            // division.
            std::size_t s = 0;
            for (int end = segment; mask != 0; mask &= mask - 1, ++kept) {
              const int bit = std::countr_zero(mask);
              for (; bit >= end; end += segment) ++s;
              offsets[kept] =
                  static_cast<SparseArray::Offset>(word_offset + bit);
              values[kept] =
                  rule.value(firsts[s] + static_cast<std::uint64_t>(bit));
            }
            word_offset += used;
          }
          out.set_chunk(chunk_id, {offsets.begin(), offsets.end()},
                        {values.begin(), values.end()});
        }
      });
  out.finalize();
  return out;
}

DenseArray generate_dense(const std::vector<std::int64_t>& sizes,
                          double density, std::uint64_t seed) {
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = density;
  spec.seed = seed;
  return generate_sparse_global(spec).to_dense();
}

SparseArray extract_block(const SparseArray& global, const BlockRange& block,
                          std::vector<std::int64_t> chunk_extents) {
  const int n = global.ndim();
  CUBIST_CHECK(block.ndim() == n, "block rank mismatch");
  for (int d = 0; d < n; ++d) {
    CUBIST_CHECK(block.hi(d) <= global.shape().extent(d),
                 "block " << block.to_string() << " exceeds the array in dim "
                          << d);
  }
  SparseArray out(block.local_shape(), std::move(chunk_extents));
  std::vector<std::int64_t> coords(static_cast<std::size_t>(n));
  std::vector<std::int64_t> target(static_cast<std::size_t>(n));
  std::vector<std::int64_t> index(static_cast<std::size_t>(n));
  for (std::int64_t source = 0; source < global.num_chunks(); ++source) {
    const auto offsets = global.chunk_offsets(source);
    if (offsets.empty()) continue;
    global.chunk_grid().unravel(source, coords.data());
    const std::vector<std::int64_t> base = global.chunk_base(coords);
    const std::vector<std::int64_t> extents = global.chunk_shape_at(coords);
    // A source chunk that is exactly one destination chunk is shared, not
    // copied: both number its cells row-major over the same extents.
    bool meets = true;
    bool whole = true;
    for (int d = 0; d < n; ++d) {
      const std::int64_t at = base[d] - block.lo(d);
      const std::int64_t step = out.chunk_extents()[d];
      meets = meets && at < block.extent(d) && at + extents[d] > 0;
      whole = whole && at >= 0 && at % step == 0 &&
              extents[d] == std::min(step, block.extent(d) - at);
      target[d] = whole ? at / step : 0;
    }
    if (!meets) continue;
    if (whole) {
      out.share_chunk(out.chunk_grid().linear_index(target.data()), global,
                      source);
      continue;
    }
    // A chunk across the block's edge, or under a different chunking, is
    // decoded cell by cell.
    const auto values = global.chunk_values(source);
    const Shape chunk_shape{extents};
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      chunk_shape.unravel(static_cast<std::int64_t>(offsets[i]), index.data());
      for (int d = 0; d < n; ++d) index[d] += base[d];
      if (!block.contains(index.data())) continue;
      block.to_local(index.data(), index.data());
      out.push(index.data(), values[i]);
    }
  }
  out.finalize();
  return out;
}

}  // namespace cubist
