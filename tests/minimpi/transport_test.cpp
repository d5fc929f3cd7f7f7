#include "minimpi/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "array/dense_array.h"
#include "minimpi/runtime.h"

namespace cubist {
namespace {

std::vector<std::byte> bytes_of(int value) {
  return std::vector<std::byte>(static_cast<std::size_t>(value),
                                std::byte{0xAB});
}

TEST(MailboxTransportTest, ChannelsAreFifoPerSourceAndTag) {
  const std::unique_ptr<Transport> transport = make_mailbox_transport(2);
  EXPECT_STREQ(transport->name(), "mailbox");
  transport->deliver(1, 0, 7, {bytes_of(1), 0.5, 0});
  transport->deliver(1, 0, 7, {bytes_of(2), 0.25, 1});
  // FIFO within (src, tag) even though the second arrives earlier.
  EXPECT_EQ(transport->receive(1, 0, 7).payload.size(), 1u);
  EXPECT_EQ(transport->receive(1, 0, 7).payload.size(), 2u);
}

TEST(MailboxTransportTest, AbortWakesBlockedReceivers) {
  const std::unique_ptr<Transport> transport = make_mailbox_transport(2);
  std::atomic<bool> threw{false};
  std::thread receiver([&] {
    try {
      transport->receive(1, 0, 1);
    } catch (const AbortedError&) {
      threw = true;
    }
  });
  transport->abort();
  receiver.join();
  EXPECT_TRUE(threw);
  // Aborted transports stay aborted: later receives throw immediately.
  EXPECT_THROW(transport->receive(0, 1, 1), AbortedError);
}

/// A transport adaptor that counts traffic while delegating to the
/// mailbox — what an alternate backend (sockets, shared-memory rings)
/// would look like, minus the counting.
class CountingTransport : public Transport {
 public:
  CountingTransport(int num_ranks, std::atomic<int>& deliveries,
                    std::atomic<int>& receives)
      : inner_(make_mailbox_transport(num_ranks)),
        deliveries_(deliveries),
        receives_(receives) {}

  const char* name() const override { return "counting"; }

  void deliver(int dst, int src, std::uint64_t tag,
               Message message) override {
    deliveries_.fetch_add(1);
    inner_->deliver(dst, src, tag, std::move(message));
  }

  Message receive(int rank, int src, std::uint64_t tag) override {
    receives_.fetch_add(1);
    return inner_->receive(rank, src, tag);
  }

  void abort() override { inner_->abort(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::atomic<int>& deliveries_;
  std::atomic<int>& receives_;
};

TEST(TransportInjectionTest, RuntimeRunsCollectivesOverACustomAdaptor) {
  std::atomic<int> deliveries{0};
  std::atomic<int> receives{0};
  std::atomic<int> factory_calls{0};
  const int p = 4;
  double root_sum = 0.0;
  const RunReport report = Runtime::run(
      p, CostModel{},
      [&](Comm& comm) {
        std::vector<int> group(static_cast<std::size_t>(p));
        std::iota(group.begin(), group.end(), 0);
        DenseArray data{Shape{{8}}};
        data.fill(static_cast<Value>(comm.rank() + 1));
        comm.reduce(group, data, 1, AggregateOp::kSum);
        if (comm.rank() == 0) root_sum = data[0];
      },
      [&](int num_ranks) -> std::unique_ptr<Transport> {
        factory_calls.fetch_add(1);
        EXPECT_EQ(num_ranks, p);
        return std::make_unique<CountingTransport>(num_ranks, deliveries,
                                                   receives);
      });
  EXPECT_EQ(factory_calls.load(), 1);
  // The whole-block binomial reduce ships exactly g-1 messages, all of
  // which went through the adaptor.
  EXPECT_EQ(deliveries.load(), p - 1);
  EXPECT_EQ(receives.load(), p - 1);
  EXPECT_EQ(report.volume.total_messages, p - 1);
  EXPECT_DOUBLE_EQ(root_sum, 1.0 + 2.0 + 3.0 + 4.0);
}

TEST(TransportInjectionTest, NullFactoryFallsBackToMailbox) {
  const RunReport report = Runtime::run(
      2, CostModel{},
      [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_values(1, 3, std::vector<Value>{42.0});
        } else {
          EXPECT_EQ(comm.recv_values(0, 3).at(0), 42.0);
        }
      },
      nullptr);
  EXPECT_EQ(report.volume.total_messages, 1);
}

}  // namespace
}  // namespace cubist
