// End-to-end: the driver's pre-flight schedule verification and post-run
// audits pass on real parallel constructions — the recorded trace is the
// certified program event for event, result gather included, theory and
// runtime agree byte-for-byte — and the verified cube is still correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "cubist/cubist.h"

namespace cubist {
namespace {

BlockProvider provider_of(const SparseSpec& spec) {
  return [spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
}

ParallelOptions gated_options() {
  ParallelOptions options;
  options.audit = true;
  return options;
}

/// How many of `events` carry a gather tag.
std::int64_t gather_events(const std::vector<TraceEvent>& events) {
  return std::count_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.tag >= kGatherTagBase;
  });
}

TEST(AnalysisGateTest, VerifiedAndAuditedRunMatchesReference) {
  SparseSpec spec;
  spec.sizes = {16, 8, 8};
  spec.density = 0.2;
  spec.seed = 11;
  const auto report =
      run_parallel_cube(spec.sizes, {1, 1, 0}, CostModel{}, provider_of(spec),
                        /*collect_result=*/true, gated_options());
  ASSERT_TRUE(report.cube.has_value());
  const SparseArray global = generate_sparse_global(spec);
  const CubeResult reference = build_cube_sequential(global);
  EXPECT_EQ(compare_cubes(reference, *report.cube), "");
}

TEST(AnalysisGateTest, AuditHoldsAcrossGridsAndMessageCaps) {
  SparseSpec spec;
  spec.sizes = {16, 8, 4};
  spec.density = 0.3;
  spec.seed = 3;
  for (const std::vector<int>& splits :
       {std::vector<int>{1, 1, 1}, {2, 1, 0}, {0, 0, 0}}) {
    for (std::int64_t cap : {std::int64_t{0}, std::int64_t{5}}) {
      ParallelOptions options = gated_options();
      options.reduce.max_message_elements = cap;
      EXPECT_NO_THROW(run_parallel_cube(spec.sizes, splits, CostModel{},
                                        provider_of(spec),
                                        /*collect_result=*/false, options))
          << "splits " << splits.size() << " cap " << cap;
    }
  }
}

TEST(AnalysisGateTest, AuditHoldsForUnevenExtents) {
  // Balanced splits of non-divisible extents: Lemma 1 still exact.
  SparseSpec spec;
  spec.sizes = {7, 5, 3};
  spec.density = 0.5;
  spec.seed = 29;
  EXPECT_NO_THROW(run_parallel_cube(spec.sizes, {1, 1, 1}, CostModel{},
                                    provider_of(spec),
                                    /*collect_result=*/false,
                                    gated_options()));
}

TEST(AnalysisGateTest, AuditGateAcceptsGatheredRuns) {
  // The audit records the full run — construction and the write-back
  // gather — and the trace must equal the certified plan, gather included.
  SparseSpec spec;
  spec.sizes = {8, 6, 4};
  spec.density = 0.4;
  spec.seed = 13;
  ParallelOptions options = gated_options();
  options.reduce.max_message_elements = 7;
  const auto report =
      run_parallel_cube(spec.sizes, {1, 1, 0}, CostModel{}, provider_of(spec),
                        /*collect_result=*/true, options);
  const ScheduleSpec sched =
      schedule_spec_of(spec.sizes, {1, 1, 0}, CostModel{},
                       /*collect_result=*/true, options);
  const CommPlan plan = build_comm_plan(sched);
  const AnalysisReport audit = audit_trace(sched, plan, report.run.trace);
  EXPECT_TRUE(audit.ok()) << audit.to_string();
  // Rank 0 receives one block per (view, other lead); each is a send of
  // that lead.
  std::int64_t sends = 0;
  for (std::size_t r = 1; r < report.run.trace.ranks.size(); ++r) {
    sends += gather_events(report.run.trace.ranks[r]);
  }
  EXPECT_GT(sends, 0);
  EXPECT_EQ(gather_events(report.run.trace.ranks[0]), sends);
}

TEST(AnalysisGateTest, CommEventStructureIsDeterministicAcrossRuns) {
  // The run's EventTrace is the one comm record: two audited builds of the
  // same input on a miniature Figure-7 shape (4-D, p = 4) record the same
  // events — kinds, peers, tags, offsets, units and the match/operand
  // links, the gather's included.
  SparseSpec spec;
  spec.sizes = {8, 8, 4, 4};
  spec.density = 0.5;
  spec.seed = 7;
  ParallelOptions options;
  options.reduce.encode_wire = true;
  options.audit = true;
  const auto traced_build = [&] {
    return run_parallel_cube(spec.sizes, {1, 1, 0, 0}, CostModel{},
                             provider_of(spec), /*collect_result=*/true,
                             options)
        .run.trace;
  };
  const EventTrace first = traced_build();
  const EventTrace second = traced_build();
  ASSERT_EQ(first.ranks.size(), 4u);
  EXPECT_GT(first.total_events(), 0);
  EXPECT_EQ(first.ranks, second.ranks);
}

TEST(AnalysisGateTest, PlannedProgramMatchesRecordedTrace) {
  // The planner and the runtime walk one program in one record, so per
  // rank the recorded events ARE the planned ones — kind, peer, tag,
  // offset and logical size, gather included — once the wire sizes and
  // the match and operand links, which only the run can know, are copied
  // in from the trace, and the audit passes, which checks those too. It
  // holds under every reduce algorithm, with and without a message cap,
  // the codec on and off, and with and without the gather. A 4 x 2 grid
  // gives groups of 4 (where the algorithms differ) and of 2.
  SparseSpec spec;
  spec.sizes = {8, 6, 4};
  spec.density = 0.4;
  spec.seed = 19;
  const std::vector<int> log_splits = {2, 1, 0};
  for (ReduceAlgorithm algorithm :
       {ReduceAlgorithm::kBinomial, ReduceAlgorithm::kRing,
        ReduceAlgorithm::kAuto}) {
    const CostModel model;
    for (std::int64_t cap : {std::int64_t{0}, std::int64_t{7}}) {
      for (bool codec : {false, true}) {
        for (bool collect : {false, true}) {
          ParallelOptions options;
          options.reduce.algorithm = algorithm;
          options.reduce.max_message_elements = cap;
          options.reduce.encode_wire = codec;
          options.audit = true;
          const auto report =
              run_parallel_cube(spec.sizes, log_splits, model,
                                provider_of(spec), collect, options);
          const std::string where = std::string(to_string(algorithm)) +
                                    " cap " + std::to_string(cap) +
                                    " codec " + std::to_string(codec) +
                                    " collect " + std::to_string(collect);

          const ScheduleSpec sched =
              schedule_spec_of(spec.sizes, log_splits, model, collect, options);
          const CommPlan plan = build_comm_plan(sched);
          const AnalysisReport verified = verify_schedule(sched, plan);
          EXPECT_TRUE(verified.ok()) << where << "\n" << verified.to_string();
          const AnalysisReport audit =
              audit_trace(sched, plan, report.run.trace);
          EXPECT_TRUE(audit.ok()) << where << "\n" << audit.to_string();
          ASSERT_EQ(report.run.trace.ranks.size(), plan.ranks.size());
          for (std::size_t r = 0; r < plan.ranks.size(); ++r) {
            const std::vector<TraceEvent>& recorded =
                report.run.trace.ranks[r];
            std::vector<TraceEvent> planned = plan.events.ranks[r];
            ASSERT_EQ(recorded.size(), planned.size())
                << where << " rank " << r;
            for (std::size_t i = 0; i < planned.size(); ++i) {
              planned[i].wire = recorded[i].wire;
              planned[i].match_seq = recorded[i].match_seq;
              planned[i].operand_seq = recorded[i].operand_seq;
            }
            EXPECT_EQ(recorded, planned) << where << " rank " << r;
          }
          EXPECT_EQ(gather_events(report.run.trace.ranks[0]) > 0, collect)
              << where;
          // The run's volume is derived from the trace's sends: per
          // construction tag it is the plan's, and every planned send,
          // the gather's included, is one message.
          std::map<std::uint64_t, std::int64_t> planned_bytes;
          for (const auto& [mask, elements] : elements_by_view(plan)) {
            planned_bytes[mask] =
                elements * static_cast<std::int64_t>(sizeof(Value));
          }
          std::map<std::uint64_t, std::int64_t> measured_bytes;
          for (const auto& [tag, bytes] : report.run.volume.bytes_by_tag) {
            if (tag < kGatherTagBase) measured_bytes[tag] = bytes;
          }
          EXPECT_EQ(measured_bytes, planned_bytes) << where;
          EXPECT_EQ(report.run.volume.total_messages, plan.total_messages())
              << where;
        }
      }
    }
  }
}

TEST(AnalysisGateTest, StandaloneVerifierCertifiesDriverSchedule) {
  // What the driver gates on is also directly accessible to tooling.
  ScheduleSpec spec;
  spec.sizes = {16, 8, 8};
  spec.log_splits = {1, 1, 0};
  const AnalysisReport report = verify_schedule(spec);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.planned_total_elements, report.predicted_total_elements);
  EXPECT_LE(report.max_peak_live_bytes, report.memory_bound_bytes);
  EXPECT_GT(report.planned_messages, 0);
  EXPECT_LE(report.max_scan_scratch_bytes, kScanScratchBudgetBytes);
}

TEST(AnalysisGateTest, MeasuredScratchStaysUnderTheStaticBound) {
  // The kernels' transient stripe-scratch high-water, as measured by the
  // builders, must never exceed what the static plan charged per rank —
  // the Theorem-4 extension for intra-rank parallelism. Sized so the root
  // scans actually stripe (blocks >= kMinCellsPerStripe cells).
  SparseSpec spec;
  spec.sizes = {64, 48, 32};
  spec.density = 0.4;
  spec.seed = 17;
  const std::vector<int> log_splits = {1, 1, 0};
  const auto report =
      run_parallel_cube(spec.sizes, log_splits, CostModel{}, provider_of(spec),
                        /*collect_result=*/false, gated_options());

  ScheduleSpec sched;
  sched.sizes = spec.sizes;
  sched.log_splits = log_splits;
  const CommPlan plan = build_comm_plan(sched);
  ASSERT_EQ(report.rank_stats.size(), plan.ranks.size());
  std::int64_t max_measured = 0;
  for (std::size_t r = 0; r < plan.ranks.size(); ++r) {
    EXPECT_LE(report.rank_stats[r].peak_scratch_bytes,
              plan.ranks[r].max_scan_scratch_bytes)
        << "rank " << r;
    max_measured =
        std::max(max_measured, report.rank_stats[r].peak_scratch_bytes);
  }
  // The bound is also surfaced by the verifier report, and is itself
  // capped by the policy budget.
  const AnalysisReport verified = verify_schedule(sched);
  EXPECT_LE(max_measured, verified.max_scan_scratch_bytes);
  EXPECT_LE(verified.max_scan_scratch_bytes, kScanScratchBudgetBytes);
  EXPECT_GT(verified.max_scan_scratch_bytes, 0);
}

TEST(AnalysisGateTest, PlannedMemoryMatchesMeasuredPerRank) {
  // The planner and the builders visit one aggregation-tree walk, so each
  // rank's planned allocations and releases, replayed through a ledger,
  // peak exactly where the run's live blocks peaked, and the views the
  // plan writes back are the bytes the run wrote back — rank by rank,
  // including uneven blocks and a 4-D grid.
  struct Case {
    std::vector<std::int64_t> sizes;
    std::vector<int> log_splits;
  };
  for (const Case& c : {Case{{64, 48, 32}, {1, 1, 0}},
                        Case{{7, 5, 3}, {1, 1, 1}},
                        Case{{8, 8, 4, 4}, {1, 1, 0, 0}}}) {
    SparseSpec spec;
    spec.sizes = c.sizes;
    spec.density = 0.4;
    spec.seed = 23;
    const auto report = run_parallel_cube(spec.sizes, c.log_splits,
                                          CostModel{}, provider_of(spec),
                                          /*collect_result=*/false);

    ScheduleSpec sched;
    sched.sizes = spec.sizes;
    sched.log_splits = c.log_splits;
    const CommPlan plan = build_comm_plan(sched);
    const ProcGrid grid(c.log_splits);
    ASSERT_EQ(report.rank_stats.size(), plan.ranks.size());
    for (std::size_t r = 0; r < plan.ranks.size(); ++r) {
      const RankPlan& rank_plan = plan.ranks[r];
      MemoryLedger ledger;
      for (const PlannedMemoryEvent& event : rank_plan.memory) {
        if (event.kind == PlannedMemoryEvent::Kind::kAlloc) {
          ledger.alloc(event.bytes);
        } else {
          ledger.release(event.bytes);
        }
      }
      EXPECT_EQ(ledger.live_bytes(), 0) << "rank " << r;
      EXPECT_EQ(ledger.peak_bytes(), report.rank_stats[r].peak_live_bytes)
          << "rank " << r;

      const BlockRange block = grid.block(static_cast<int>(r), spec.sizes);
      std::int64_t final_bytes = 0;
      for (std::uint32_t mask : rank_plan.final_views) {
        std::int64_t cells = 1;
        for (int d : DimSet::from_mask(mask).dims()) cells *= block.extent(d);
        final_bytes += cells * static_cast<std::int64_t>(sizeof(Value));
      }
      EXPECT_EQ(final_bytes, report.rank_stats[r].written_bytes)
          << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace cubist
