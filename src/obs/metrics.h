// Metrics registry: counters, gauges, histograms, drift gauges; one export.
//
// The observability layer's aggregate half (the timeline half is
// obs/trace.h). Subsystems register named instruments once and update
// them on the hot path with plain atomics (histograms take a short mutex
// around a QuantileSketch — the same bounded-memory sketch serving has
// always used). A `MetricsSnapshot` renders every instrument through one
// path as JSON ("cubist-metrics/1") or Prometheus text exposition, so
// the comm volume, `ServingStats`, cache stats, and scratch high-water all
// export identically instead of each hand-rolling a struct.
//
// Drift gauges are the paper-specific instrument: each one accumulates
// (observed, model) pairs — wire bytes vs the Lemma-1 dense bound,
// a reduce member's clock charges vs the tuner's estimate of them,
// measured `cells_scanned` vs `query_cost()` — and exports the aggregate
// observed/model ratio plus the per-sample extremes, with a tolerance
// window `within()` that CI gates on (docs/OBSERVABILITY.md,
// docs/ANALYSIS.md "Drift tolerances").
//
// Naming: `cubist_<subsystem>_<what>_<unit>` (e.g.
// `cubist_comm_wire_bytes`), drift gauges `cubist_drift_<observed>_vs_
// <model>`. Labels are attached at registration as a preformatted
// `key="value"` list; the same name may appear with many label sets.
//
// Instruments are created through a Registry and live as long as it
// does; references returned by the getters are stable. `Registry::
// global()` is the process default; engines that need isolated stats
// (two QueryEngines in one test) construct their own.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/quantile_sketch.h"

namespace cubist::obs {

/// Monotonically increasing count (events, bytes, hits). Thread-safe.
class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins scalar; `set_max` keeps a high-water mark. Thread-safe.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void set_max(double value) {
    double current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time digest of a histogram.
struct HistogramSummary {
  std::int64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  std::int64_t memory_bytes = 0;
  std::int64_t memory_bound_bytes = 0;
};

/// Bounded-memory value distribution over a QuantileSketch. Thread-safe
/// (one short mutex per observation — fine off the innermost loops).
class Histogram {
 public:
  Histogram(double epsilon, std::int64_t max_count)
      : sketch_(epsilon, max_count) {}

  void observe(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    sketch_.add(value);
    sum_ += value;
  }

  HistogramSummary summary() const;

 private:
  mutable std::mutex mutex_;
  QuantileSketch sketch_;
  double sum_ = 0.0;
};

/// Point-in-time digest of a drift gauge.
struct DriftSummary {
  std::int64_t samples = 0;
  double observed_sum = 0.0;
  double model_sum = 0.0;
  double ratio = 0.0;      // observed_sum / model_sum; 0 with no samples
  double min_ratio = 0.0;  // smallest per-sample ratio seen
  double max_ratio = 0.0;  // largest per-sample ratio seen
  double tolerance_min = 0.0;
  double tolerance_max = 0.0;
  bool within = true;  // aggregate ratio inside tolerance (or no samples)
};

/// Observed-vs-model ratio with a CI-checkable tolerance window. Each
/// `record(observed, model)` call is one (prediction, measurement) pair;
/// the exported ratio is aggregate observed_sum/model_sum (robust to
/// tiny-denominator samples), with per-sample extremes kept for
/// diagnostics. Pairs with model <= 0 are counted as ignored rather
/// than poisoning the ratio. Thread-safe.
class DriftGauge {
 public:
  DriftGauge(double tolerance_min, double tolerance_max)
      : tolerance_min_(tolerance_min), tolerance_max_(tolerance_max) {}

  void record(double observed, double model);

  DriftSummary summary() const;

  /// True when there are no samples yet or the aggregate ratio is inside
  /// [tolerance_min, tolerance_max].
  bool within() const { return summary().within; }

 private:
  const double tolerance_min_;
  const double tolerance_max_;
  mutable std::mutex mutex_;
  std::int64_t samples_ = 0;
  std::int64_t ignored_ = 0;
  double observed_sum_ = 0.0;
  double model_sum_ = 0.0;
  double min_ratio_ = 0.0;
  double max_ratio_ = 0.0;
};

/// One rendered instrument (see MetricsSnapshot).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram, kDrift };
  Kind kind = Kind::kCounter;
  std::string name;
  std::string labels;  // preformatted `key="value",key="value"`, may be empty
  std::string help;
  std::int64_t counter_value = 0;
  double gauge_value = 0.0;
  HistogramSummary histogram;
  DriftSummary drift;
};

/// Everything the registry knew at snapshot time, renderable as JSON or
/// Prometheus text. Samples are sorted by (name, labels) so exports are
/// deterministic.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  std::string to_json() const;
  std::string to_prometheus() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry.
  static Registry& global();

  /// Instrument getters: create on first use, return the existing
  /// instrument on re-registration with the same (name, labels). A name
  /// re-registered as a different instrument kind throws. References
  /// stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help = "",
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help = "",
               const std::string& labels = "");
  Histogram& histogram(const std::string& name, double epsilon,
                       std::int64_t max_count, const std::string& help = "",
                       const std::string& labels = "");
  DriftGauge& drift(const std::string& name, double tolerance_min,
                    double tolerance_max, const std::string& help = "",
                    const std::string& labels = "");

  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<DriftGauge> drift;
  };

  Entry& entry(const std::string& name, const std::string& labels,
               MetricSample::Kind kind, const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::string>, Entry> entries_;
};

}  // namespace cubist::obs
