#include "serving/query_engine.h"

#include <string>
#include <utility>

#include "common/error.h"
#include "common/timer.h"
#include "core/olap_query.h"
#include "core/view_selection.h"
#include "lattice/cube_lattice.h"
#include "lattice/memory_sim.h"
#include "obs/drift.h"
#include "obs/trace.h"

namespace cubist::serving {
namespace {

/// Rank-error bound of the latency sketches (fraction of count): p999 is
/// resolved to ±0.2% of observations.
constexpr double kSketchEpsilon = 0.002;

/// Preformatted `kind="..."` label for per-class instruments.
std::string kind_label(int kind) {
  std::string label = "kind=\"";
  label += query_kind_name(static_cast<QueryKind>(kind));
  label += '"';
  return label;
}

/// Applies a non-point query to a view array (materialized or scratch).
QueryResult apply_to_view(const Query& query, const DenseArray& view) {
  QueryResult result;
  result.kind = query.kind;
  switch (query.kind) {
    case QueryKind::kSlice:
      result.array = cubist::slice(view, query.dim, query.index);
      break;
    case QueryKind::kDice:
      result.array = cubist::dice(view, query.lo, query.hi);
      break;
    case QueryKind::kRollup:
      result.array =
          cubist::rollup(view, query.dim, query.mapping, query.coarse_extent);
      break;
    case QueryKind::kTopK:
      result.topk = cubist::top_k(view, query.k);
      break;
    case QueryKind::kPoint:
      CUBIST_ASSERT(false, "point queries never go through apply_to_view");
  }
  return result;
}

/// Cells a query touches when served directly from its own view array.
/// Call after the operation validated its operands.
std::int64_t direct_cells(const Query& query, const DenseArray& view) {
  switch (query.kind) {
    case QueryKind::kPoint:
      return 1;
    case QueryKind::kSlice: {
      const std::int64_t extent = view.shape().extent(query.dim);
      return extent > 0 ? view.size() / extent : 1;
    }
    case QueryKind::kDice: {
      std::int64_t cells = 1;
      for (std::size_t d = 0; d < query.lo.size(); ++d) {
        cells *= query.hi[d] - query.lo[d];
      }
      return cells;
    }
    case QueryKind::kRollup:
    case QueryKind::kTopK:
      return view.size();
  }
  CUBIST_ASSERT(false,
                "unknown QueryKind " << static_cast<int>(query.kind));
}

/// Computes the answer from a pinned generation along `route`; `cells`
/// reports the cells scanned (the cache cost weight).
QueryResult compute(const PartialCube& cube, const Query& query,
                    std::optional<DimSet> route, std::int64_t* cells) {
  if (query.kind == QueryKind::kPoint) {
    QueryResult result;
    result.kind = query.kind;
    result.scalar = cube.query_from(route, query.view, query.coords, cells);
    return result;
  }
  if (route && *route == query.view) {
    const DenseArray& view = cube.view(query.view);
    QueryResult result = apply_to_view(query, view);
    *cells = direct_cells(query, view);
    return result;
  }
  // Unmaterialized view: project the routed ancestor (or the raw input)
  // down to it in one scan, then answer from the scratch array. The scan
  // dominates the cost — |ancestor| cells (or nnz) — which is exactly
  // what query_cost() charges this view.
  const DenseArray scratch = cube.materialize_from(route, query.view, cells);
  return apply_to_view(query, scratch);
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const PartialCube> generation,
                         QueryEngineOptions options)
    : generation_(std::move(generation)), options_(options) {
  CUBIST_CHECK(generation_ != nullptr, "engine needs a cube generation");
  CUBIST_CHECK(options_.cache_budget_bytes >= 0,
               "cache budget must be non-negative");
  CUBIST_CHECK(options_.max_workers >= 0,
               "max_workers must be non-negative");
  view_freq_ = std::vector<std::atomic<std::int64_t>>(
      std::size_t{1} << generation_->ndims());
  if (options_.pool == nullptr) options_.pool = &ThreadPool::global();
  registry_ = options_.registry;
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  if (options_.cache_budget_bytes > 0) {
    cache_ = std::make_unique<SliceCache>(options_.cache_budget_bytes,
                                          registry_);
  }
  queries_ = &registry_->counter("cubist_serving_queries",
                                 "queries executed (cache hits included)");
  routed_direct_ = &registry_->counter(
      "cubist_serving_routed",
      "queries by routing outcome against the materialized set",
      "route=\"direct\"");
  routed_ancestor_ = &registry_->counter(
      "cubist_serving_routed",
      "queries by routing outcome against the materialized set",
      "route=\"ancestor\"");
  routed_input_ = &registry_->counter(
      "cubist_serving_routed",
      "queries by routing outcome against the materialized set",
      "route=\"input\"");
  for (int i = 0; i < kNumQueryKinds; ++i) {
    const std::string label = kind_label(i);
    class_cells_[static_cast<std::size_t>(i)] = &registry_->counter(
        "cubist_serving_cells_scanned",
        "cells scanned computing answers (cache hits scan nothing)", label);
    class_latency_[static_cast<std::size_t>(i)] = &registry_->histogram(
        "cubist_serving_latency_us", kSketchEpsilon,
        options_.sketch_max_count, "query latency in microseconds", label);
  }
  // One histogram over every query regardless of class (class sketches
  // cannot be merged after the fact).
  overall_latency_ = &registry_->histogram(
      "cubist_serving_latency_us", kSketchEpsilon,
      options_.sketch_max_count, "query latency in microseconds",
      "kind=\"all\"");
  query_drift_ = &obs::query_cost_vs_cells_gauge(*registry_);
}

QueryEngine::QueryEngine(std::shared_ptr<const CubeResult> cube,
                         QueryEngineOptions options)
    : QueryEngine(std::make_shared<const PartialCube>(
                      PartialCube::adopt(std::move(cube))),
                  options) {}

std::shared_ptr<const PartialCube> QueryEngine::generation() const {
  const std::lock_guard<std::mutex> lock(generation_mutex_);
  return generation_;
}

std::shared_ptr<const QueryResult> QueryEngine::execute(const Query& query) {
  const Timer timer;
  obs::Span span("serving", "query");
  span.tag("kind", query_kind_name(query.kind))
      .tag("view", static_cast<std::int64_t>(query.view.mask()));
  queries_->increment();
  // Pin one generation for the whole query; replan() swaps underneath
  // without ever invalidating it.
  const std::shared_ptr<const PartialCube> cube = generation();
  // route() rejects a view outside the lattice before its counter slot
  // is indexed. The view is counted only once its query has an answer, so
  // a rejected query never steers replan().
  const std::optional<DimSet> route = cube->routes().route(query.view);
  std::atomic<std::int64_t>& view_freq = view_freq_[query.view.mask()];
  std::uint32_t routed_mask = query.view.mask();
  bool ancestor_routed = false;
  if (!route) {
    routed_mask = DimSet::full(cube->ndims()).mask();
    routed_input_->increment();
    span.tag("route", "input");
  } else if (*route == query.view) {
    routed_direct_->increment();
    span.tag("route", "direct");
  } else {
    routed_mask = route->mask();
    ancestor_routed = true;
    routed_ancestor_->increment();
    span.tag("route", "ancestor");
  }
  // Point queries bypass the cache: one array load is cheaper than one
  // cache probe, and memoizing 8-byte scalars only churns the index.
  const bool cacheable = cache_ != nullptr && query.kind != QueryKind::kPoint;
  std::string key;
  if (cacheable) {
    // Keyed by the ROUTED view: answers are route-invariant, so entries
    // cached under a pre-replan routing stay correct and simply age out
    // of the budget once their key is no longer produced.
    key = std::to_string(routed_mask);
    key += '|';
    key += query.cache_key();
    if (std::shared_ptr<const QueryResult> hit = cache_->get(key)) {
      view_freq.fetch_add(1, std::memory_order_relaxed);
      obs::Instant("serving", "cache.hit")
          .tag("view", static_cast<std::int64_t>(routed_mask));
      record_latency(query.kind, timer.elapsed_seconds() * 1e6);
      return hit;
    }
    obs::Instant("serving", "cache.miss")
        .tag("view", static_cast<std::int64_t>(routed_mask));
  }
  std::int64_t cells = 0;
  auto result =
      std::make_shared<const QueryResult>(compute(*cube, query, route, &cells));
  view_freq.fetch_add(1, std::memory_order_relaxed);
  class_cells_[static_cast<std::size_t>(query.kind)]->add(cells);
  span.tag("cells", cells);
  // Drift gauge #3: on the ancestor-projection path materialize_from
  // reports exactly |ancestor| cells — the price query_cost() charges —
  // so (measured, model) must agree to the tight tolerance. The direct
  // path (direct_cells: slices touch |view|/extent) and the raw-input
  // path (nnz vs the dense root the model charges) price differently by
  // design and are excluded.
  if (ancestor_routed && query.kind != QueryKind::kPoint) {
    query_drift_->record(static_cast<double>(cells),
                         static_cast<double>(cube->view(*route).size()));
  }
  if (cacheable) {
    cache_->put(key, result, static_cast<double>(cells));
  }
  record_latency(query.kind, timer.elapsed_seconds() * 1e6);
  return result;
}

std::vector<std::shared_ptr<const QueryResult>> QueryEngine::execute_batch(
    const std::vector<Query>& batch) {
  std::vector<std::shared_ptr<const QueryResult>> results(batch.size());
  if (batch.empty()) return results;
  // One chunk per query: each chunk writes only its own result slots, so
  // the batch is race-free by construction; the pool caps concurrency at
  // max_workers ("clients") and rethrows the first failure after the
  // batch drains.
  options_.pool->parallel_for(
      0, static_cast<std::int64_t>(batch.size()), /*grain=*/1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          results[static_cast<std::size_t>(i)] =
              execute(batch[static_cast<std::size_t>(i)]);
        }
      },
      options_.max_workers);
  return results;
}

std::vector<std::int64_t> QueryEngine::view_frequencies() const {
  std::vector<std::int64_t> freq(view_freq_.size());
  for (std::size_t i = 0; i < freq.size(); ++i) {
    freq[i] = view_freq_[i].load(std::memory_order_relaxed);
  }
  return freq;
}

QueryEngine::ReplanReport QueryEngine::replan(std::int64_t budget_bytes) {
  // Serialize re-planners; readers are never blocked — each pins the
  // generation current at its start and finishes against it.
  const std::lock_guard<std::mutex> lock(replan_mutex_);
  obs::Span span("serving", "replan");
  span.tag("budget_bytes", budget_bytes);
  const std::shared_ptr<const PartialCube> current = generation();
  // An adopted cube has no input to rebuild from: input_ptr() throws
  // before any work, and the current generation keeps serving.
  const std::shared_ptr<const SparseArray>& input = current->input_ptr();
  const CubeLattice lattice(current->sizes());
  ViewSelection selection = select_views_weighted(
      lattice, budget_bytes, view_frequencies(),
      static_cast<std::int64_t>(sizeof(Value)));
  // The memory verifier certifies the selection before any bytes move;
  // an over-budget plan throws here and the old generation keeps
  // serving untouched.
  const std::int64_t certified =
      certify_selection_bytes(lattice, selection.views, budget_bytes);
  BuildStats build_stats;
  auto next_cube = std::make_shared<const PartialCube>(
      PartialCube::build(input, selection.views, &build_stats));
  ReplanReport report;
  report.budget_bytes = budget_bytes;
  report.certified_bytes = certified;
  report.materialized_bytes = next_cube->materialized_bytes();
  report.build_cells_scanned = build_stats.cells_scanned;
  // Both sides sum the selected views' bytes. A build that wrote back
  // more than it was certified for fails here, before the swap, and the
  // old generation keeps serving.
  CUBIST_ASSERT(report.materialized_bytes <= certified,
                "replan materialized " << report.materialized_bytes
                                       << " bytes, certified " << certified);
  {
    // `current` still holds the old generation, so it is never freed
    // under the lock.
    const std::lock_guard<std::mutex> swap_lock(generation_mutex_);
    generation_ = std::move(next_cube);
  }
  obs::Instant("serving", "snapshot.swap")
      .tag("views", static_cast<std::int64_t>(selection.views.size()))
      .tag("materialized_bytes", report.materialized_bytes);
  span.tag("certified_bytes", report.certified_bytes)
      .tag("build_cells", report.build_cells_scanned);
  report.views = std::move(selection.views);
  return report;
}

std::int64_t QueryEngine::cells_scanned_total() const {
  std::int64_t total = 0;
  for (const obs::Counter* cells : class_cells_) {
    total += cells->value();
  }
  return total;
}

void QueryEngine::record_latency(QueryKind kind, double micros) {
  class_latency_[static_cast<std::size_t>(kind)]->observe(micros);
  overall_latency_->observe(micros);
}

ServingStats QueryEngine::stats() const {
  ServingStats stats;
  stats.queries = queries_->value();
  stats.cache_enabled = cache_ != nullptr;
  if (cache_ != nullptr) stats.cache = cache_->stats();
  for (int i = 0; i < kNumQueryKinds; ++i) {
    const std::int64_t cells =
        class_cells_[static_cast<std::size_t>(i)]->value();
    stats.class_cells_scanned[static_cast<std::size_t>(i)] = cells;
    stats.cells_scanned += cells;
  }
  stats.routed_direct = routed_direct_->value();
  stats.routed_ancestor = routed_ancestor_->value();
  stats.routed_input = routed_input_->value();
  for (int i = 0; i <= kNumQueryKinds; ++i) {
    const obs::Histogram* histogram =
        i < kNumQueryKinds ? class_latency_[static_cast<std::size_t>(i)]
                           : overall_latency_;
    const obs::HistogramSummary summary = histogram->summary();
    ClassLatency& lat = i < kNumQueryKinds
                            ? stats.latency[static_cast<std::size_t>(i)]
                            : stats.overall;
    lat.count = summary.count;
    lat.p50_us = summary.p50;
    lat.p99_us = summary.p99;
    lat.p999_us = summary.p999;
    stats.sketch_memory_bytes += summary.memory_bytes;
    stats.sketch_memory_bound_bytes += summary.memory_bound_bytes;
  }
  return stats;
}

}  // namespace cubist::serving
