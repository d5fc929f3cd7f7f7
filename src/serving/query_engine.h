// QueryEngine: concurrent OLAP serving over an immutable cube snapshot.
//
// The engine layers four pieces over CubeResult / PartialCube +
// core/olap_query:
//
//  * Snapshot reads. The engine serves either a full cube
//    (shared_ptr<const CubeResult>) or a partially materialized one
//    (shared_ptr<const PartialCube>); every query computes from an
//    immutable snapshot — concurrent readers share nothing mutable on
//    the cube read path and take no locks there. Pinning a partial
//    generation copies one shared_ptr under a mutex held for that copy
//    only.
//
//  * Minimal-ancestor routing (partial snapshots). The cube's own
//    AncestorTable (PartialCube::routes()) resolves every query's view to
//    its cheapest materialized ancestor (Theorem-7 minimal-parent chain
//    as fallback); unmaterialized views are projected out of the routed
//    ancestor — or the raw input — on the fly. ServingStats records
//    cells_scanned per query class plus routing outcomes, so the linear
//    cost model the view selection optimizes is directly observable.
//
//  * Workload feedback. A lock-cheap per-view frequency counter (one
//    relaxed fetch_add per query) records which views the stream hits;
//    replan() feeds it to the frequency-weighted benefit-per-byte greedy
//    (select_views_weighted), certifies the chosen set against the byte
//    budget via the memory verifier, rebuilds a PartialCube from the
//    SAME shared input, and swaps the snapshot pointer — in-flight
//    queries keep the old generation alive, same immutability contract
//    as a refresh.
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
// concurrent clients. Determinism contract: for a fixed snapshot, the
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
  /// table, cache hits included (full-cube snapshots always count as
  /// direct): served from the query's own materialized view, from a
  /// materialized ancestor, or from the raw input.
  std::int64_t routed_direct = 0;
  std::int64_t routed_ancestor = 0;
  std::int64_t routed_input = 0;
};

class QueryEngine {
 public:
  /// Serves a fully materialized cube. `snapshot` must be non-null; the
  /// engine shares ownership, so the cube outlives every in-flight
  /// query.
  explicit QueryEngine(std::shared_ptr<const CubeResult> snapshot,
                       QueryEngineOptions options = {});

  /// Serves a partially materialized cube: queries on any lattice view
  /// are routed to their cheapest materialized ancestor via the cube's
  /// routes() and the residual dimensions are aggregated on the fly.
  /// Answers are identical to the full-cube engine's for every routing
  /// path.
  explicit QueryEngine(std::shared_ptr<const PartialCube> snapshot,
                       QueryEngineOptions options = {});

  /// Executes one query (validating it against the snapshot; rejections
  /// throw InvalidArgument). Returns a shared result — possibly served
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

  /// Full-cube snapshot accessor; only valid when the engine was built
  /// over a CubeResult.
  const CubeResult& snapshot() const;
  bool cache_enabled() const { return cache_ != nullptr; }

  bool serves_partial() const { return view_freq_ != nullptr; }
  /// The current partial-cube generation (partial engines only). Swapped
  /// by replan(); callers get a consistent pinned snapshot.
  std::shared_ptr<const PartialCube> partial_snapshot() const;

  /// Observed per-view query counts, indexed by view mask — the feedback
  /// signal replan() optimizes (partial engines only).
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
  /// generation for its whole execution.
  /// Partial engines only.
  ReplanReport replan(std::int64_t budget_bytes);

 private:
  /// Option validation, registry/instrument and cache setup shared by
  /// both ctors.
  void init_telemetry();
  /// Computes the answer from the full snapshot; `cells` reports the
  /// cells scanned (the cache cost weight).
  QueryResult compute(const Query& query, std::int64_t* cells) const;
  /// Computes the answer from a pinned partial generation.
  QueryResult compute_partial(const PartialCube& cube, const Query& query,
                              std::int64_t* cells) const;
  void record_latency(QueryKind kind, double micros);

  std::shared_ptr<const CubeResult> snapshot_;  // full mode only
  // Partial mode: the current generation. partial_mutex_ guards only the
  // pointer: readers copy it, replan() replaces it. (libstdc++ 12's
  // atomic<shared_ptr>::load unlocks with relaxed order, so its store
  // formally races with an earlier load; TSan reports it.)
  std::shared_ptr<const PartialCube> partial_snapshot_;
  mutable std::mutex partial_mutex_;
  QueryEngineOptions options_;
  std::unique_ptr<SliceCache> cache_;
  // Per-view query counts (partial mode; size = 2^ndims). A plain array
  // of relaxed atomics: one uncontended fetch_add per query.
  std::unique_ptr<std::atomic<std::int64_t>[]> view_freq_;
  std::int64_t num_view_slots_ = 0;
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
