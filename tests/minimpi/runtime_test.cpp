#include "minimpi/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace cubist {
namespace {

TEST(RuntimeTest, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::atomic<std::uint32_t> rank_mask{0};
  Runtime::run(8, CostModel{}, [&](Comm& comm) {
    count.fetch_add(1);
    rank_mask.fetch_or(1u << comm.rank());
    EXPECT_EQ(comm.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(rank_mask.load(), 0xFFu);
}

TEST(RuntimeTest, SingleRankWorks) {
  const RunReport report = Runtime::run(1, CostModel{}, [](Comm&) {});
  EXPECT_EQ(report.rank_seconds.size(), 1u);
  EXPECT_EQ(report.volume.total_messages, 0);
}

TEST(RuntimeTest, ZeroRanksRejected) {
  EXPECT_THROW(Runtime::run(0, CostModel{}, [](Comm&) {}), InvalidArgument);
}

TEST(RuntimeTest, NullFunctionRejected) {
  EXPECT_THROW(Runtime::run(1, CostModel{}, nullptr), InvalidArgument);
}

TEST(RuntimeTest, RankExceptionPropagates) {
  EXPECT_THROW(Runtime::run(2, CostModel{},
                            [](Comm& comm) {
                              if (comm.rank() == 1) {
                                throw std::runtime_error("rank 1 died");
                              }
                              // Rank 0 blocks forever; the abort must
                              // wake it instead of deadlocking the test.
                              comm.recv_bytes(1, 1);
                            }),
               std::runtime_error);
}

TEST(RuntimeTest, ExceptionWhileOthersWaitInReceives) {
  // Ranks 0-2 block in fixed-source receives that no send will ever
  // match; rank 3's exception must wake all three and be rethrown.
  std::atomic<int> woken{0};
  EXPECT_THROW(Runtime::run(4, CostModel{},
                            [&](Comm& comm) {
                              if (comm.rank() == 3) {
                                throw std::logic_error("boom");
                              }
                              try {
                                comm.recv_bytes(3, 1);
                              } catch (const AbortedError&) {
                                woken.fetch_add(1);
                                throw;
                              }
                            }),
               std::logic_error);
  EXPECT_EQ(woken.load(), 3);
}

TEST(RuntimeTest, WallTimeIsMeasured) {
  const RunReport report = Runtime::run(2, CostModel{}, [](Comm&) {});
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(RuntimeTest, MakespanIsMaxRankClock) {
  const RunReport report = Runtime::run(4, CostModel{}, [](Comm& comm) {
    comm.set_clock(static_cast<double>(10 - comm.rank()));
  });
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 10.0);
  EXPECT_DOUBLE_EQ(report.rank_seconds[3], 7.0);
}

TEST(RuntimeTest, BackToBackRunsAreIndependent) {
  const RunReport first = Runtime::run(2, CostModel{}, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_values(1, 1, std::vector<Value>{1.0});
    } else {
      comm.recv_values(0, 1);
    }
  });
  const RunReport second = Runtime::run(2, CostModel{}, [](Comm&) {});
  EXPECT_EQ(first.volume.total_messages, 1);
  EXPECT_EQ(second.volume.total_messages, 0);
}

}  // namespace
}  // namespace cubist
