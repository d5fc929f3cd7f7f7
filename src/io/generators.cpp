#include "io/generators.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace cubist {
namespace {

constexpr std::uint64_t kValueSalt = 0x5eed5a17u;
/// Cells one generation task walks at least (several small chunks share one).
constexpr std::int64_t kCellsPerTask = std::int64_t{1} << 14;

/// Per-cell population rule shared by all generators: a pure function of
/// (seed, global linear index [, coordinates for the Zipf skew]).
class CellRule {
 public:
  explicit CellRule(const SparseSpec& spec)
      : seed_(spec.seed), density_(spec.density) {
    CUBIST_CHECK(spec.density >= 0.0 && spec.density <= 1.0,
                 "density must be in [0,1]");
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

  /// Value of the cell at `global_index` (coordinates only needed when the
  /// Zipf skew is active); 0 means empty.
  Value value_at(const std::int64_t* coords, std::int64_t global_index) const {
    double p = density_;
    if (!weights_.empty()) {
      p *= multiplier_;
      for (std::size_t d = 0; d < weights_.size(); ++d) {
        p *= weights_[d][static_cast<std::size_t>(coords[d])];
      }
      p = std::min(p, 1.0);
    }
    const auto threshold = static_cast<std::uint64_t>(
        p * 18446744073709551616.0 /* 2^64 */);
    if (p < 1.0 &&
        cell_hash(seed_, static_cast<std::uint64_t>(global_index)) >=
            threshold) {
      return Value{0};
    }
    return static_cast<Value>(
        1 + cell_hash(seed_ ^ kValueSalt,
                      static_cast<std::uint64_t>(global_index)) %
                9);
  }

 private:
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
        std::vector<SparseArray::Offset> offsets;
        std::vector<Value> values;
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
          SparseArray::Offset offset = 0;
          // Row by row: the global linear index is the row's base plus the
          // inner coordinate (global stride 1).
          for (;;) {
            std::int64_t row_base = 0;
            for (int d = 0; d < n - 1; ++d) {
              row_base += gidx[d] * global_shape.stride(d);
            }
            for (std::int64_t i = 0; i < extents[n - 1]; ++i, ++offset) {
              gidx[n - 1] = origin[n - 1] + i;
              const Value v = rule.value_at(gidx.data(), row_base + gidx[n - 1]);
              if (v != Value{0}) {
                offsets.push_back(offset);
                values.push_back(v);
              }
            }
            int d = n - 2;
            for (; d >= 0; --d) {
              if (++gidx[d] < origin[d] + extents[d]) break;
              gidx[d] = origin[d];
            }
            if (d < 0) break;
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
