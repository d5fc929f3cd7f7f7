// Reduction variants: non-SUM operators and chunked (capped) messages.
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

ReduceOptions capped(std::int64_t max_message_elements) {
  ReduceOptions options;
  options.max_message_elements = max_message_elements;
  return options;
}

// Both fields are 64-bit so the struct has no padding: gtest names each case
// after the parameter's raw bytes, and padding would put garbage in the name.
struct ReduceCase {
  std::int64_t group_size;
  std::int64_t message_cap;
};

class ChunkedReduceTest : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ChunkedReduceTest, SumMatchesWholeBlockForAnyCap) {
  const int p = static_cast<int>(GetParam().group_size);
  const std::int64_t cap = GetParam().message_cap;
  Runtime::run(p, fast_model(), [p, cap](Comm& comm) {
    std::vector<int> group(static_cast<std::size_t>(p));
    std::iota(group.begin(), group.end(), 0);
    DenseArray data{Shape{{37}}};  // deliberately not a multiple of caps
    for (std::int64_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<Value>((comm.rank() + 1) * (i + 1));
    }
    comm.reduce(group, data, 1, AggregateOp::kSum, capped(cap));
    if (comm.rank() == 0) {
      const auto sum_ranks = static_cast<Value>(p * (p + 1) / 2);
      for (std::int64_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(data[i], sum_ranks * static_cast<Value>(i + 1)) << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ChunkedReduceTest,
    ::testing::Values(ReduceCase{2, 1}, ReduceCase{2, 5}, ReduceCase{2, 37},
                      ReduceCase{2, 100}, ReduceCase{4, 7}, ReduceCase{8, 3},
                      ReduceCase{3, 10}, ReduceCase{16, 8}));

TEST(ChunkedReduceTest, MessageCountScalesWithCap) {
  for (std::int64_t cap : {0, 37, 10, 1}) {
    const RunReport report = Runtime::run(2, fast_model(), [cap](Comm& comm) {
      const std::vector<int> group{0, 1};
      DenseArray data{Shape{{37}}};
      comm.reduce(group, data, 1, AggregateOp::kSum, capped(cap));
    });
    const std::int64_t expected_messages =
        cap == 0 ? 1 : (37 + cap - 1) / cap;
    EXPECT_EQ(report.volume.total_messages, expected_messages) << cap;
    // Volume is invariant under the cap.
    EXPECT_EQ(report.volume.total_bytes,
              37 * static_cast<std::int64_t>(sizeof(Value)));
  }
}

TEST(OpReduceTest, MinReducesElementwise) {
  Runtime::run(4, fast_model(), [](Comm& comm) {
    const std::vector<int> group{0, 1, 2, 3};
    DenseArray data{Shape{{4}}};
    // rank r holds [r+1, 10-r, (r==2 ? -5 : 7), r*100 + 1].
    data[0] = static_cast<Value>(comm.rank() + 1);
    data[1] = static_cast<Value>(10 - comm.rank());
    data[2] = comm.rank() == 2 ? -5.0 : 7.0;
    data[3] = static_cast<Value>(comm.rank() * 100 + 1);
    comm.reduce(group, data, 2, AggregateOp::kMin);
    if (comm.rank() == 0) {
      EXPECT_EQ(data[0], 1.0);
      EXPECT_EQ(data[1], 7.0);
      EXPECT_EQ(data[2], -5.0);
      EXPECT_EQ(data[3], 1.0);
    }
  });
}

TEST(OpReduceTest, MaxReducesElementwise) {
  Runtime::run(4, fast_model(), [](Comm& comm) {
    const std::vector<int> group{0, 1, 2, 3};
    DenseArray data{Shape{{2}}};
    data[0] = static_cast<Value>(comm.rank());
    data[1] = static_cast<Value>(-comm.rank());
    comm.reduce(group, data, 3, AggregateOp::kMax);
    if (comm.rank() == 0) {
      EXPECT_EQ(data[0], 3.0);
      EXPECT_EQ(data[1], 0.0);
    }
  });
}

TEST(OpReduceTest, MinWithIdentityCellsBehavesLikeEmpty) {
  // Partial blocks carry +inf where a rank saw no data; the reduction
  // must propagate real values over identities.
  Runtime::run(2, fast_model(), [](Comm& comm) {
    const std::vector<int> group{0, 1};
    DenseArray data{Shape{{2}}};
    fill_identity(AggregateOp::kMin, data);
    if (comm.rank() == 1) {
      data[0] = 4.0;  // only rank 1 has data for cell 0
    }
    comm.reduce(group, data, 4, AggregateOp::kMin);
    if (comm.rank() == 0) {
      EXPECT_EQ(data[0], 4.0);
      EXPECT_EQ(data[1], identity_of(AggregateOp::kMin));  // still empty
    }
  });
}

TEST(OpReduceTest, CountReduceIsSum) {
  Runtime::run(4, fast_model(), [](Comm& comm) {
    const std::vector<int> group{0, 1, 2, 3};
    DenseArray data{Shape{{1}}};
    data[0] = static_cast<Value>(comm.rank() + 1);  // local counts
    comm.reduce(group, data, 5, AggregateOp::kCount);
    if (comm.rank() == 0) {
      EXPECT_EQ(data[0], 10.0);
    }
  });
}

TEST(ChunkedReduceTest, NegativeCapRejected) {
  EXPECT_THROW(Runtime::run(2, fast_model(),
                            [](Comm& comm) {
                              const std::vector<int> group{0, 1};
                              DenseArray data{Shape{{4}}};
                              comm.reduce(group, data, 1, AggregateOp::kSum,
                                          capped(-1));
                            }),
               InvalidArgument);
}

}  // namespace
}  // namespace cubist
