// cubist — umbrella public API header.
//
// Reproduction of "Communication and Memory Optimal Parallel Data Cube
// Construction" (Jin, Yang, Vaidyanathan, Agrawal; ICPP 2003).
//
// Typical use:
//
//   #include "cubist/cubist.h"
//
//   cubist::SparseSpec spec;
//   spec.sizes = {64, 64, 32};          // non-increasing = optimal order
//   spec.density = 0.10;
//   auto input = cubist::generate_sparse_global(spec);
//
//   cubist::BuildStats stats;
//   cubist::CubeResult cube = cubist::build_cube_sequential(input, &stats);
//   double sales = cube.query(cubist::DimSet::of({0, 2}), {item, period});
//
//   // Parallel, on a 2x2x1 processor grid (p = 4):
//   auto report = cubist::run_parallel_cube(
//       spec.sizes, cubist::greedy_partition(spec.sizes, /*log_p=*/2),
//       cubist::CostModel{},
//       [&](int, const cubist::BlockRange& b) {
//         return cubist::generate_sparse_block(spec, b);
//       },
//       /*collect_result=*/true);
#pragma once

#include "array/aggregate.h"       // multi-way aggregation kernels
#include "array/aggregate_op.h"    // sum/count/min/max operators
#include "array/block.h"           // block ranges / data distribution
#include "array/dense_array.h"     // dense n-d arrays
#include "array/permute.h"         // physical dimension reordering
#include "array/shape.h"           // extents + strides
#include "array/sparse_array.h"    // chunk-offset sparse format
#include "analysis/comm_plan.h"          // static Figure-5 schedule plan
#include "analysis/schedule_verifier.h"  // schedule verifier + post-run audits
#include "baselines/tree_builder.h"  // prior-work spanning-tree baselines
#include "common/dimset.h"         // lattice node = set of dimensions
#include "common/mathutil.h"
#include "common/quantile_sketch.h"  // bounded-memory percentiles
#include "common/thread_pool.h"    // intra-rank parallel_for engine
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/cube_result.h"        // the materialized cube
#include "core/olap_query.h"         // slice / dice / rollup / top-k
#include "core/ordering.h"           // Theorems 6/7
#include "core/parallel_builder.h"   // Figure 5 (per-rank)
#include "core/parallel_driver.h"    // end-to-end parallel runs
#include "core/partial_cube.h"       // partial materialization
#include "core/partition.h"          // Figure 6 / Theorem 8
#include "core/sequential_builder.h" // Figure 3
#include "core/verify.h"             // reference cube + comparison
#include "core/view_selection.h"     // HRU greedy view selection
#include "io/array_io.h"             // binary + CSV persistence
#include "io/generators.h"           // synthetic datasets
#include "lattice/aggregation_tree.h"  // Definition 3
#include "lattice/ancestor_table.h"    // minimal-ancestor query routing
#include "lattice/cube_lattice.h"      // Figure 1
#include "lattice/memory_sim.h"        // Theorems 1/2/4/5
#include "lattice/prefix_tree.h"       // Definition 2
#include "lattice/spanning_tree.h"     // generic trees (MMST/MNST/naive)
#include "lattice/volume_model.h"      // Lemma 1 / Theorem 3
#include "minimpi/comm.h"              // message passing endpoint
#include "minimpi/cost_model.h"        // virtual-time constants
#include "minimpi/proc_grid.h"         // processor grid + lead processors
#include "minimpi/runtime.h"           // SPMD runtime
#include "obs/drift.h"                 // model-vs-measured drift gauges
#include "obs/metrics.h"               // metrics registry + exports
#include "obs/trace.h"                 // span tracer + Chrome JSON export
#include "serving/query.h"             // canonical query descriptors
#include "serving/query_engine.h"      // concurrent OLAP serving engine
#include "serving/slice_cache.h"       // cost-weighted hot-slice cache
#include "serving/workload.h"          // uniform/Zipfian load generation
#include "tiling/tiled_builder.h"      // memory-budgeted tiling extension
