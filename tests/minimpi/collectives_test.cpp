#include "minimpi/collectives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "array/dense_array.h"
#include "common/error.h"
#include "minimpi/runtime.h"

namespace cubist {
namespace {

using Kind = TraceEventKind;

/// One step of a member's per-chunk schedule: a send to `peer`, or a
/// receive from it (with the combine that folds it).
struct Step {
  Kind kind = Kind::kSend;
  int peer = -1;

  bool operator==(const Step&) const = default;
};

/// The steps of `program`'s first chunk, a program written for one tag
/// and a one-element block (so one chunk): each send and each receive,
/// every receive checked to be followed by the combine that folds it.
std::vector<Step> steps_of(const std::vector<TraceEvent>& program) {
  std::vector<Step> steps;
  for (std::size_t i = 0; i < program.size(); ++i) {
    const TraceEvent& event = program[i];
    EXPECT_EQ(event.offset, 0);
    if (event.kind == Kind::kCombine) continue;
    EXPECT_EQ(event.units, static_cast<std::int64_t>(sizeof(Value)));
    if (event.kind == Kind::kRecv) {
      EXPECT_LT(i + 1, program.size());
      if (i + 1 < program.size()) {
        EXPECT_EQ(program[i + 1],
                  (TraceEvent{Kind::kCombine, event.peer, event.tag, 1, 0}));
      }
    }
    steps.push_back({event.kind, event.peer});
  }
  return steps;
}

std::vector<int> iota_group(int g, int first = 0) {
  std::vector<int> group(static_cast<std::size_t>(g));
  std::iota(group.begin(), group.end(), first);
  return group;
}

/// The settings of a reduce forced to `algorithm` under message cap `cap`.
ReduceOptions forced(ReduceAlgorithm algorithm, std::int64_t cap = 0,
                     bool encode_wire = true) {
  return {algorithm, cap, encode_wire};
}

TEST(CollectivesTest, ToStringParseRoundTrip) {
  for (ReduceAlgorithm algorithm :
       {ReduceAlgorithm::kAuto, ReduceAlgorithm::kBinomial,
        ReduceAlgorithm::kRing}) {
    ReduceAlgorithm parsed = ReduceAlgorithm::kAuto;
    ASSERT_TRUE(parse_reduce_algorithm(to_string(algorithm), &parsed));
    EXPECT_EQ(parsed, algorithm);
  }
  ReduceAlgorithm parsed = ReduceAlgorithm::kAuto;
  EXPECT_FALSE(parse_reduce_algorithm("bittersweet", &parsed));
  EXPECT_FALSE(parse_reduce_algorithm("", &parsed));
  // The deleted hierarchical reduce's names are unknown like any other.
  EXPECT_FALSE(parse_reduce_algorithm("two-level", &parsed));
  EXPECT_FALSE(parse_reduce_algorithm("two_level", &parsed));
  EXPECT_EQ(parsed, ReduceAlgorithm::kAuto);
}

TEST(CollectivesTest, BinomialMatchesHistoricalSchedule) {
  // Non-contiguous ranks prove peers are ranks, not group indices.
  const std::vector<int> group{10, 11, 12, 13, 14, 15, 16, 17};
  using Steps = std::vector<Step>;
  const std::map<int, Steps> expected{
      {0, {{Kind::kRecv, 11}, {Kind::kRecv, 12}, {Kind::kRecv, 14}}},
      {1, {{Kind::kSend, 10}}},
      {2, {{Kind::kRecv, 13}, {Kind::kSend, 10}}},
      {3, {{Kind::kSend, 12}}},
      {4, {{Kind::kRecv, 15}, {Kind::kRecv, 16}, {Kind::kSend, 10}}},
      {5, {{Kind::kSend, 14}}},
      {6, {{Kind::kRecv, 17}, {Kind::kSend, 14}}},
      {7, {{Kind::kSend, 16}}},
  };
  for (const auto& [me, steps] : expected) {
    EXPECT_EQ(steps_of(reduce_program(forced(ReduceAlgorithm::kBinomial),
                                      group, me, 1, /*tag=*/3)),
              steps)
        << "member " << me;
  }
}

TEST(CollectivesTest, RingIsAChainTowardGroupFront) {
  const std::vector<int> group{20, 21, 22, 23, 24};
  using Steps = std::vector<Step>;
  const auto ring_steps = [&](int me) {
    return steps_of(
        reduce_program(forced(ReduceAlgorithm::kRing), group, me, 1, 3));
  };
  EXPECT_EQ(ring_steps(4), (Steps{{Kind::kSend, 23}}));
  EXPECT_EQ(ring_steps(2), (Steps{{Kind::kRecv, 23}, {Kind::kSend, 21}}));
  EXPECT_EQ(ring_steps(0), (Steps{{Kind::kRecv, 21}}));
}

/// Lemma-1 volume contract: under every algorithm, every member except
/// group[0] sends exactly once per chunk (so the reduction ships exactly
/// (g-1) * block elements), and every send has a matching fixed-source
/// receive.
TEST(CollectivesTest, EveryAlgorithmSendsGroupMinusOnePerChunk) {
  for (ReduceAlgorithm algorithm :
       {ReduceAlgorithm::kBinomial, ReduceAlgorithm::kRing}) {
    for (int g = 1; g <= 9; ++g) {
      const std::vector<int> group = iota_group(g);
      std::multimap<int, int> sends;     // (from, to)
      std::multimap<int, int> receives;  // (from, to)
      for (int me = 0; me < g; ++me) {
        int my_sends = 0;
        for (const Step& step :
             steps_of(reduce_program(forced(algorithm), group, me, 1, 3))) {
          ASSERT_GE(step.peer, 0);
          ASSERT_LT(step.peer, g);
          ASSERT_NE(step.peer, group[static_cast<std::size_t>(me)]);
          if (step.kind == Kind::kSend) {
            ++my_sends;
            sends.emplace(group[static_cast<std::size_t>(me)], step.peer);
          } else {
            receives.emplace(step.peer, group[static_cast<std::size_t>(me)]);
          }
        }
        EXPECT_EQ(my_sends, me == 0 ? 0 : 1)
            << to_string(algorithm) << " g=" << g << " member " << me;
      }
      EXPECT_EQ(static_cast<int>(sends.size()), g - 1);
      EXPECT_EQ(sends, receives)
          << to_string(algorithm) << " g=" << g
          << ": a send without a matching fixed-source receive";
    }
  }
}

TEST(CollectivesTest, ChunkRuleCapWinsRingAutoPipelines) {
  // An explicit cap always wins.
  EXPECT_EQ(reduce_chunk_elements(forced(ReduceAlgorithm::kRing, 64), 1000, 8),
            64);
  EXPECT_EQ(
      reduce_chunk_elements(forced(ReduceAlgorithm::kBinomial, 64), 1000, 8),
      64);
  // Uncapped: binomial ships the whole block...
  EXPECT_EQ(reduce_chunk_elements(forced(ReduceAlgorithm::kBinomial), 1000, 8),
            1000);
  // ...while the ring auto-chunks to ~2(g-1) pieces so the chain pipelines.
  EXPECT_EQ(reduce_chunk_elements(forced(ReduceAlgorithm::kRing), 1400, 8),
            100);
  EXPECT_GE(reduce_chunk_elements(forced(ReduceAlgorithm::kRing), 5, 8), 1);
  EXPECT_EQ(reduce_chunk_elements(forced(ReduceAlgorithm::kBinomial), 0, 8),
            1);
}

// --- the one flat link ---

TEST(CostModelTest, ChargeSendPricesTheFlatLink) {
  // Every edge pays the same: the sender is busy for the overhead plus
  // the transfer, and the message lands one latency later.
  CostModel model;
  model.latency = 0.5;
  model.overhead = 0.25;
  model.bandwidth = 100.0;
  double clock = 1.0;
  EXPECT_EQ(model.charge_send(clock, 50.0), 2.25);
  EXPECT_EQ(clock, 1.75);
}

// --- the tuner ---

CostModel paper_like_model() {
  CostModel model;
  model.update_rate = 1.1e6;
  model.scan_rate = 1.1e6;
  model.latency = 1e-4;
  model.overhead = 5e-6;
  model.bandwidth = 20e6;
  return model;
}

TEST(CollectivesTunerTest, PrefersRingForLargeDenseBlocks) {
  // A 64^3 view over 8 ranks: bandwidth-bound, so the chain's pipelined
  // folds beat the binomial root's serialized ones.
  EXPECT_EQ(choose_reduce_algorithm({}, iota_group(8), 64 * 64 * 64,
                                    paper_like_model()),
            ReduceAlgorithm::kRing);
}

TEST(CollectivesTunerTest, KeepsBinomialForSmallLatencyBoundBlocks) {
  EXPECT_EQ(choose_reduce_algorithm({}, iota_group(8), 64, paper_like_model()),
            ReduceAlgorithm::kBinomial);
}

TEST(CollectivesTunerTest, PairGroupsNeverSwitch) {
  // g=2: every schedule is the same single send, so binomial stands.
  for (const CostModel& model : {CostModel{}, paper_like_model()}) {
    EXPECT_EQ(choose_reduce_algorithm({}, iota_group(2), 1 << 20, model),
              ReduceAlgorithm::kBinomial);
  }
}

TEST(CollectivesTunerTest, ResolvePassesForcedAlgorithmsThrough) {
  for (ReduceAlgorithm algorithm :
       {ReduceAlgorithm::kBinomial, ReduceAlgorithm::kRing}) {
    EXPECT_EQ(resolve_reduce_algorithm(forced(algorithm), iota_group(8), 64,
                                       paper_like_model()),
              algorithm);
  }
}

TEST(CollectivesTunerTest, AutoNeverPredictedWorseThanBinomial) {
  for (const CostModel& model : {CostModel{}, paper_like_model()}) {
    for (std::int64_t elements : {std::int64_t{1}, std::int64_t{512},
                                  std::int64_t{262144}}) {
      const ReduceAlgorithm chosen =
          choose_reduce_algorithm({}, iota_group(8), elements, model);
      const double chosen_seconds = simulate_reduce_seconds(
          forced(chosen), iota_group(8), elements, model);
      const double binomial_seconds =
          simulate_reduce_seconds(forced(ReduceAlgorithm::kBinomial),
                                  iota_group(8), elements, model);
      EXPECT_LE(chosen_seconds, binomial_seconds)
          << to_string(chosen) << " elements=" << elements;
    }
  }
}

/// The simulator is not a heuristic — it replays the generated schedule
/// under the runtime's own charging functions. With the wire codec off
/// and fully dense data the runtime's virtual-clock makespan must match
/// the prediction to the last bit, for every algorithm: capped at 128
/// elements, uncapped (where the ring splits the block into 2(g-1)
/// chunks), and for a scattered group whose members are out of rank
/// order.
TEST(CollectivesTunerTest, SimulatorMatchesRuntimeVirtualClock) {
  constexpr std::int64_t kElements = 1000;
  struct Case {
    CostModel model;
    std::vector<int> group;
    std::int64_t cap;
  };
  const std::vector<Case> cases{
      {paper_like_model(), iota_group(8), 128},
      {paper_like_model(), iota_group(8), 0},
      {paper_like_model(), {1, 5, 3, 7}, 128},
      {paper_like_model(), {1, 5, 3, 7}, 0},
  };
  for (const Case& c : cases) {
    for (ReduceAlgorithm algorithm :
         {ReduceAlgorithm::kBinomial, ReduceAlgorithm::kRing}) {
      // Ranks outside the group stay idle at clock zero, so the makespan
      // is the group's.
      const RunReport report = Runtime::run(8, c.model, [&](Comm& comm) {
        if (std::find(c.group.begin(), c.group.end(), comm.rank()) ==
            c.group.end()) {
          return;
        }
        DenseArray data{Shape{{kElements}}};
        data.fill(static_cast<Value>(comm.rank() + 1));
        comm.reduce(c.group, data, 1, AggregateOp::kSum,
                    forced(algorithm, c.cap, /*encode_wire=*/false));
      });
      const double predicted = simulate_reduce_seconds(
          forced(algorithm, c.cap, /*encode_wire=*/false), c.group, kElements,
          c.model);
      EXPECT_DOUBLE_EQ(report.makespan_seconds, predicted)
          << to_string(algorithm) << " group of " << c.group.size()
          << " cap " << c.cap;
    }
  }
}

}  // namespace
}  // namespace cubist
