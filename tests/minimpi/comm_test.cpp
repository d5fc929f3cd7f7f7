#include "minimpi/comm.h"

#include <gtest/gtest.h>

#include <numeric>

#include "minimpi/runtime.h"
#include "test_util.h"

namespace cubist {
namespace {

CostModel fast_model() {
  CostModel model;
  model.latency = 1e-6;
  model.bandwidth = 1e9;
  return model;
}

TEST(CommTest, PingPongDeliversPayload) {
  Runtime::run(2, fast_model(), [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<Value> payload{1.0, 2.0, 3.0};
      comm.send_values(1, 7, payload);
      const std::vector<Value> echoed = comm.recv_values(1, 8);
      EXPECT_EQ(echoed, payload);
    } else {
      const std::vector<Value> received = comm.recv_values(0, 7);
      EXPECT_EQ(received, (std::vector<Value>{1.0, 2.0, 3.0}));
      comm.send_values(0, 8, received);
    }
  });
}

TEST(CommTest, MessagesMatchedByTagNotArrivalOrder) {
  Runtime::run(2, fast_model(), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_values(1, /*tag=*/100, std::vector<Value>{1.0});
      comm.send_values(1, /*tag=*/200, std::vector<Value>{2.0});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv_values(0, 200), (std::vector<Value>{2.0}));
      EXPECT_EQ(comm.recv_values(0, 100), (std::vector<Value>{1.0}));
    }
  });
}

TEST(CommTest, SameTagIsFifoPerSource) {
  Runtime::run(2, fast_model(), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_values(1, 5, std::vector<Value>{1.0});
      comm.send_values(1, 5, std::vector<Value>{2.0});
    } else {
      EXPECT_EQ(comm.recv_values(0, 5), (std::vector<Value>{1.0}));
      EXPECT_EQ(comm.recv_values(0, 5), (std::vector<Value>{2.0}));
    }
  });
}

TEST(CommTest, LedgerCountsBytesAndMessagesPerTag) {
  const RunReport report = Runtime::run(2, fast_model(), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_values(1, 3, std::vector<Value>(10, 1.0));
      comm.send_values(1, 4, std::vector<Value>(5, 1.0));
    } else {
      comm.recv_values(0, 3);
      comm.recv_values(0, 4);
    }
  });
  EXPECT_EQ(report.volume.total_messages, 2);
  EXPECT_EQ(report.volume.total_bytes,
            static_cast<std::int64_t>(15 * sizeof(Value)));
  EXPECT_EQ(report.volume.bytes_by_tag.at(3),
            static_cast<std::int64_t>(10 * sizeof(Value)));
  EXPECT_EQ(report.volume.bytes_by_tag.at(4),
            static_cast<std::int64_t>(5 * sizeof(Value)));
}

TEST(CommTest, SelfSendRejected) {
  EXPECT_THROW(Runtime::run(1, fast_model(),
                            [](Comm& comm) {
                              comm.send_values(0, 1,
                                               std::vector<Value>{1.0});
                            }),
               InvalidArgument);
}

class ReduceSumTest : public ::testing::TestWithParam<int> {};

TEST_P(ReduceSumTest, GroupOfAnySizeSumsToLead) {
  const int p = GetParam();
  Runtime::run(p, fast_model(), [p](Comm& comm) {
    std::vector<int> group(static_cast<std::size_t>(p));
    std::iota(group.begin(), group.end(), 0);
    DenseArray data{Shape{{4}}};
    for (std::int64_t i = 0; i < 4; ++i) {
      data[i] = static_cast<Value>(comm.rank() * 10 + i);
    }
    comm.reduce(group, data, /*tag=*/1, AggregateOp::kSum);
    if (comm.rank() == 0) {
      for (std::int64_t i = 0; i < 4; ++i) {
        // sum over r of (10 r + i) = 10 p(p-1)/2 + p i
        EXPECT_EQ(data[i],
                  static_cast<Value>(10 * p * (p - 1) / 2 + p * i));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, ReduceSumTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

TEST(ReduceSumTest, SubgroupReductionLeavesOthersUntouched) {
  Runtime::run(4, fast_model(), [](Comm& comm) {
    DenseArray data{Shape{{2}}};
    data.fill(static_cast<Value>(comm.rank() + 1));
    if (comm.rank() < 2) {
      const std::vector<int> group{0, 1};
      comm.reduce(group, data, 9, AggregateOp::kSum);
      if (comm.rank() == 0) {
        EXPECT_EQ(data[0], 3.0);  // 1 + 2
      }
    } else {
      EXPECT_EQ(data[0], static_cast<Value>(comm.rank() + 1));
    }
  });
}

TEST(ReduceSumTest, VolumeMatchesBinomialTree) {
  // (g-1) block transfers for a group of g.
  for (int g : {2, 4, 8}) {
    const std::int64_t block = 16;
    const RunReport report = Runtime::run(g, fast_model(), [&](Comm& comm) {
      std::vector<int> group(static_cast<std::size_t>(g));
      std::iota(group.begin(), group.end(), 0);
      DenseArray data{Shape{{block}}};
      comm.reduce(group, data, 2, AggregateOp::kSum);
    });
    EXPECT_EQ(report.volume.total_bytes,
              (g - 1) * block * static_cast<std::int64_t>(sizeof(Value)))
        << "g=" << g;
    EXPECT_EQ(report.volume.total_messages, g - 1);
  }
}

TEST(ReduceSumTest, RankOutsideGroupThrows) {
  EXPECT_THROW(
      Runtime::run(2, fast_model(),
                   [](Comm& comm) {
                     const std::vector<int> group{0};
                     DenseArray data{Shape{{2}}};
                     // rank 1 not in group
                     comm.reduce(group, data, 1, AggregateOp::kSum);
                   }),
      InvalidArgument);
}

TEST(ReduceSumTest, SingletonGroupTouchesNoWire) {
  // Same early-out as zero-size blocks: nothing to combine, no messages.
  const RunReport report = Runtime::run(2, fast_model(), [](Comm& comm) {
    const std::vector<int> group{comm.rank()};
    DenseArray data{Shape{{8}}};
    data.fill(1.0);
    comm.reduce(group, data, 6, AggregateOp::kSum);
    EXPECT_EQ(data[0], 1.0);
  });
  EXPECT_EQ(report.volume.total_messages, 0);
  EXPECT_EQ(report.volume.total_bytes, 0);
  EXPECT_EQ(report.volume.total_wire_bytes, 0);
}

TEST(ReduceSumTest, AllIdentityPayloadShrinksOnTheWire) {
  constexpr std::int64_t kBlock = 128;
  const RunReport report = Runtime::run(2, fast_model(), [](Comm& comm) {
    const std::vector<int> group{0, 1};
    DenseArray data{Shape{{kBlock}}};  // zero-filled = the SUM identity
    comm.reduce(group, data, 6, AggregateOp::kSum, ReduceOptions{});
  });
  // Rank 1, the only sender, shipped a header-only run payload for a full
  // block. The send event keeps both sides: logical bytes are the paper's
  // quantity, wire bytes are what the link saw.
  EXPECT_EQ(report.volume.total_bytes,
            kBlock * static_cast<std::int64_t>(sizeof(Value)));
  EXPECT_EQ(report.volume.total_wire_bytes,
            static_cast<std::int64_t>(sizeof(WireHeader)));
  EXPECT_EQ(report.volume.bytes_by_tag.at(6), report.volume.total_bytes);
  EXPECT_EQ(report.volume.wire_bytes_by_tag.at(6),
            report.volume.total_wire_bytes);
}

TEST(ReduceSumTest, DisabledCodecKeepsWireEqualLogical) {
  const RunReport report = Runtime::run(2, fast_model(), [](Comm& comm) {
    const std::vector<int> group{0, 1};
    DenseArray data{Shape{{64}}};  // maximally compressible, but codec off
    ReduceOptions options;
    options.encode_wire = false;
    comm.reduce(group, data, 6, AggregateOp::kSum, options);
  });
  EXPECT_EQ(report.volume.total_bytes,
            64 * static_cast<std::int64_t>(sizeof(Value)));
  EXPECT_EQ(report.volume.total_wire_bytes, report.volume.total_bytes);
}

TEST(CommTest, RawSendsCountWireEqualLogical) {
  const RunReport report = Runtime::run(2, fast_model(), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_values(1, 3, std::vector<Value>(10, 0.0));
    } else {
      comm.recv_values(0, 3);
    }
  });
  EXPECT_EQ(report.volume.total_wire_bytes, report.volume.total_bytes);
  EXPECT_EQ(report.volume.wire_bytes_by_tag.at(3),
            report.volume.bytes_by_tag.at(3));
}

TEST(VirtualClockTest, ComputeChargesAdvanceClock) {
  const RunReport report = Runtime::run(1, fast_model(), [](Comm& comm) {
    comm.charge_compute(/*cells=*/12'000'000, /*updates=*/12'000'000);
  });
  // 12e6 cells at scan_rate + 12e6 updates at update_rate = 1s + 1s.
  EXPECT_NEAR(report.makespan_seconds, 2.0, 1e-9);
}

TEST(VirtualClockTest, MessageImposesLatencyAndBandwidth) {
  CostModel model;
  model.latency = 0.5;
  model.bandwidth = 800.0;  // bytes/s -> 100 Values/s
  const RunReport report = Runtime::run(2, model, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_values(1, 1, std::vector<Value>(100, 1.0));
    } else {
      comm.recv_values(0, 1);
    }
  });
  // Transfer = 800 bytes / 800 B/s = 1 s, plus 0.5 s latency at receiver.
  EXPECT_NEAR(report.makespan_seconds, 1.5, 1e-9);
  // The sender only pays the transfer.
  EXPECT_NEAR(report.rank_seconds[0], 1.0, 1e-9);
}

TEST(VirtualClockTest, ReceiveWaitsForSenderClock) {
  CostModel model = fast_model();
  const RunReport report = Runtime::run(2, model, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.set_clock(3.0);  // sender is busy for 3 virtual seconds
      comm.send_values(1, 1, std::vector<Value>{1.0});
    } else {
      comm.recv_values(0, 1);
      EXPECT_GE(comm.clock(), 3.0);  // receiver cannot see the past
    }
  });
  EXPECT_GE(report.makespan_seconds, 3.0);
}

TEST(VirtualClockTest, DeterministicAcrossRuns) {
  auto job = [](Comm& comm) {
    std::vector<int> group(8);
    std::iota(group.begin(), group.end(), 0);
    DenseArray data{Shape{{64}}};
    data.fill(static_cast<Value>(comm.rank()));
    comm.charge_compute(1000 * (comm.rank() + 1), 500);
    comm.reduce(group, data, 1, AggregateOp::kSum);
  };
  const RunReport a = Runtime::run(8, CostModel{}, job);
  const RunReport b = Runtime::run(8, CostModel{}, job);
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.rank_seconds, b.rank_seconds);
  EXPECT_EQ(a.volume.total_bytes, b.volume.total_bytes);
}

}  // namespace
}  // namespace cubist
