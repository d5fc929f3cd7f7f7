// Layer self times from one obs capture of a traced benchmark pass.
//
// A span's self time is its duration minus the time its children on the
// same track cover. The bench's own spans (bench/generate, bench/build,
// bench/provide_block, bench/query) frame each call into the library; the
// library's spans inside them name the layers. A parallel
// build's `build/parallel_run` interval is attributed along its critical
// rank — the `runtime/rank` span that ends last — and the rest of that
// interval is thread spawn and join. Self time of any span this file does
// not assign to a layer is unattributed.
#pragma once

#include <cstdint>

#include "obs/trace.h"

namespace cubist::bench {

/// Seconds summed over every operation in the capture (divide by the
/// counts for per-operation values).
struct Attribution {
  std::int64_t generates = 0;
  double generate_s = 0;  // bench/generate

  std::int64_t builds = 0;           // bench/build spans
  std::int64_t parallel_builds = 0;  // ... that ran build/parallel_run
  double build_wall_s = 0;
  double plan_s = 0;            // build/plan_and_verify
  double spawn_join_s = 0;      // parallel_run minus the critical rank
  double extract_s = 0;         // bench/provide_block, critical rank
  double scan_s = 0;            // build/scan_input + scan_view, critical
  double scan_sum_s = 0;        // ... summed over every rank
  double reduce_s = 0;          // comm/reduce self, critical rank
  double reduce_sum_s = 0;      // ... summed over every rank
  double gather_s = 0;          // build/gather self, critical rank
  double seq_build_s = 0;       // bench/build with no library span inside
  double build_unattributed_s = 0;
  double rank_skew_sum = 0;     // per build: longest / shortest rank span

  std::int64_t queries = 0;
  double query_wall_s = 0;
  double compute_s = 0;         // serving/query
  double query_unattributed_s = 0;

  std::int64_t records = 0;
  std::int64_t dropped = 0;
};

Attribution attribute(const obs::TraceCapture& capture);

}  // namespace cubist::bench
