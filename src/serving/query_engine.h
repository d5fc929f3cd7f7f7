// QueryEngine: concurrent OLAP serving over an immutable cube generation.
//
// The engine layers four pieces over PartialCube + core/olap_query:
//
//  * Generation reads. The engine serves one shared_ptr<const
//    PartialCube> generation: a selection built from a shared input, or
//    a complete CubeResult adopted as the every-view selection
//    (PartialCube::adopt, no copy). Every query pins the current
//    generation by copying one shared_ptr under a mutex held for that
//    copy only, then computes from immutable data without locks.
//
//  * Minimal-ancestor routing. The generation's AncestorTable
//    (PartialCube::routes()) resolves every query's view to its cheapest
//    materialized ancestor (Theorem-7 minimal-parent chain as fallback);
//    unmaterialized views are aggregated out of the routed ancestor — or
//    the raw input — on the fly by one kernel scan, whose parallel_for
//    nests in a batch's (its caller runs its own chunks: no deadlock). ServingStats records cells_scanned per
//    query class plus routing outcomes, so the linear cost model the
//    view selection optimizes is directly observable.
//
//  * Workload feedback. A lock-cheap per-view frequency counter (one
//    relaxed fetch_add per answered query; a rejected query counts for
//    nothing) records which views the stream hits;
//    replan() feeds it to the frequency-weighted benefit-per-byte greedy
//    (select_views_weighted), certifies the chosen set against the byte
//    budget via the memory verifier, rebuilds a PartialCube from the
//    SAME shared input, and swaps the generation pointer — in-flight
//    queries keep the old generation alive. An adopted cube has no input
//    to rebuild from, so replan() rejects it.
//
//  * Hot-slice caching + latency telemetry. Computed results are
//    memoized in a cost-weighted SliceCache keyed by the ROUTED view
//    plus the canonical query descriptor (answers are route-invariant,
//    so entries cached before a re-plan stay correct and simply age
//    out). Point queries bypass the cache. All serving telemetry —
//    query/route/cell counters, per-class latency histograms (the same
//    bounded-memory QuantileSketch as before, now inside
//    obs::Histogram), cache counters — lives in an obs::Registry
//    (options.registry, or an engine-private one), so `stats()` is a
//    read-back view over the instruments and the metrics exporter sees
//    the identical numbers: one source of truth, no double counting.
//    Query execution is traced (obs::Span "serving"/"query" with
//    kind/view/route tags, cache hit/miss instants, replan spans) and
//    the ancestor-projection path feeds the
//    cubist_drift_query_cost_vs_cells gauge — measured cells_scanned vs
//    the query_cost() model, exact by the materialize_from contract.
//
// Batches run through the shared ThreadPool's chunked parallel_for (one
// query per chunk), inheriting its exception propagation and per-rank
// budget behavior; `max_workers` caps a batch's concurrency, modeling N
// concurrent clients. Determinism contract: for a fixed generation, the
// results of a batch are bit-identical for every pool size and with the
// cache on or off (tests/serving/serving_determinism_test.cpp and
// tests/serving/partial_serving_test.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "core/cube_result.h"
#include "core/partial_cube.h"
#include "serving/query.h"
#include "serving/slice_cache.h"

namespace cubist::serving {

struct QueryEngineOptions {
  /// Pool batches run on; nullptr = ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Concurrency cap per batch (the "number of clients"); 0 = the
  /// pool's per-rank budget.
  int max_workers = 0;
  /// Byte budget for the hot-slice cache; 0 disables caching.
  std::int64_t cache_budget_bytes = std::int64_t{64} << 20;
  /// Observation count the latency sketches' rank-error bound
  /// (kSketchEpsilon in query_engine.cpp) must survive.
  std::int64_t sketch_max_count = 2'000'000;
  /// Registry the engine's instruments (cubist_serving_*) register in.
  /// nullptr = an engine-private registry, so two engines in one process
  /// never share counters; pass &obs::Registry::global() to fold the
  /// engine into the process-wide export.
  obs::Registry* registry = nullptr;
};

/// Latency percentiles for one query class, in microseconds.
struct ClassLatency {
  std::int64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

struct ServingStats {
  std::int64_t queries = 0;
  SliceCacheStats cache;  // zero-valued when the cache is disabled
  bool cache_enabled = false;
  /// Indexed by QueryKind; name via query_kind_name().
  std::array<ClassLatency, kNumQueryKinds> latency{};
  /// Percentiles over every query regardless of class (its own sketch —
  /// class sketches cannot be merged after the fact).
  ClassLatency overall{};
  /// Telemetry footprint: stored sketch bytes and the static bound the
  /// sketches can never exceed.
  std::int64_t sketch_memory_bytes = 0;
  std::int64_t sketch_memory_bound_bytes = 0;
  /// Cells scanned computing answers (cache hits scan nothing): the
  /// linear-cost-model work metric minimal-ancestor routing minimizes,
  /// total and per query class.
  std::int64_t cells_scanned = 0;
  std::array<std::int64_t, kNumQueryKinds> class_cells_scanned{};
  /// Routing outcomes — every query is classified against the routing
  /// table, cache hits included (an adopted full cube serves every proper
  /// view directly): served from the query's own materialized view, from
  /// a materialized ancestor, or from the raw input.
  std::int64_t routed_direct = 0;
  std::int64_t routed_ancestor = 0;
  std::int64_t routed_input = 0;
};

class QueryEngine {
 public:
  /// Serves `generation`: queries on any lattice view are routed to
  /// their cheapest materialized ancestor via its routes() and the
  /// residual dimensions are aggregated on the fly. `generation` must be
  /// non-null; the engine shares ownership, so it outlives every
  /// in-flight query.
  explicit QueryEngine(std::shared_ptr<const PartialCube> generation,
                       QueryEngineOptions options = {});

  /// Serves a complete cube through PartialCube::adopt.
  explicit QueryEngine(std::shared_ptr<const CubeResult> cube,
                       QueryEngineOptions options = {});

  /// Executes one query (validating it against the generation;
  /// rejections throw InvalidArgument). Returns a shared result — possibly served
  /// from cache, always bit-identical to a fresh computation.
  std::shared_ptr<const QueryResult> execute(const Query& query);

  /// Executes a batch concurrently (one parallel_for chunk per query),
  /// preserving order: result[i] answers batch[i]. The first exception
  /// any query throws is rethrown after the batch drains.
  std::vector<std::shared_ptr<const QueryResult>> execute_batch(
      const std::vector<Query>& batch);

  /// Serving telemetry, read back from the registry instruments (the
  /// struct is a view, not a second ledger).
  ServingStats stats() const;

  /// The registry the engine's instruments live in (options.registry or
  /// the engine-private one); snapshot it to export serving metrics.
  obs::Registry& registry() { return *registry_; }

  /// Total cells scanned so far — the cells_scanned field of stats()
  /// without the quantile-sketch work; cheap enough to sample per query.
  std::int64_t cells_scanned_total() const;

  /// The current generation's views, valid until the next replan().
  const CubeResult& snapshot() const { return generation()->views(); }
  bool cache_enabled() const { return cache_ != nullptr; }

  /// The current generation. Swapped by replan(); callers get a
  /// consistent pinned snapshot.
  std::shared_ptr<const PartialCube> generation() const;

  /// Observed per-view counts of answered queries, indexed by view mask —
  /// the feedback signal replan() optimizes.
  std::vector<std::int64_t> view_frequencies() const;

  /// Outcome of one replan() cycle.
  struct ReplanReport {
    std::vector<DimSet> views;           // the new materialized set
    std::int64_t budget_bytes = 0;
    std::int64_t certified_bytes = 0;    // memory-verifier peak, <= budget
    std::int64_t materialized_bytes = 0; // actual bytes of the new cube
    std::int64_t build_cells_scanned = 0;
  };

  /// Re-plans the materialized set under `budget_bytes` from the
  /// observed view frequencies: weighted benefit-per-byte selection,
  /// byte-budget certification through the memory verifier, rebuild from
  /// the shared input (asserted against the certificate), pointer swap.
  /// Concurrent queries never wait for the rebuild — each pins one
  /// generation for its whole execution. A generation without an input
  /// (an adopted cube) is rejected with InvalidArgument.
  ReplanReport replan(std::int64_t budget_bytes);

 private:
  void record_latency(QueryKind kind, double micros);

  // The current generation. generation_mutex_ guards only the pointer:
  // readers copy it, replan() replaces it. (libstdc++ 12's
  // atomic<shared_ptr>::load unlocks with relaxed order, so its store
  // formally races with an earlier load; TSan reports it.)
  std::shared_ptr<const PartialCube> generation_;
  mutable std::mutex generation_mutex_;
  QueryEngineOptions options_;
  std::unique_ptr<SliceCache> cache_;
  // Per-view query counts (size = 2^ndims), relaxed atomics: one
  // uncontended fetch_add per query.
  std::vector<std::atomic<std::int64_t>> view_freq_;
  std::mutex replan_mutex_;  // serializes re-planners, never readers
  // Registry-backed telemetry: every counter/histogram below is an
  // instrument owned by registry_; stats() reads them back.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  obs::Counter* queries_ = nullptr;
  std::array<obs::Counter*, kNumQueryKinds> class_cells_{};
  obs::Counter* routed_direct_ = nullptr;
  obs::Counter* routed_ancestor_ = nullptr;
  obs::Counter* routed_input_ = nullptr;
  std::array<obs::Histogram*, kNumQueryKinds> class_latency_{};
  obs::Histogram* overall_latency_ = nullptr;
  obs::DriftGauge* query_drift_ = nullptr;
};

}  // namespace cubist::serving
