#include "minimpi/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace cubist {
namespace {

std::vector<std::byte> bytes_of(int value) {
  return std::vector<std::byte>(static_cast<std::size_t>(value),
                                std::byte{0xAB});
}

TEST(TransportTest, ChannelsAreFifoPerSourceAndTag) {
  Transport transport(2);
  transport.deliver(1, 0, 7, {bytes_of(1), 0.5, 0});
  transport.deliver(1, 0, 7, {bytes_of(2), 0.25, 1});
  // FIFO within (src, tag) even though the second arrives earlier.
  EXPECT_EQ(transport.receive(1, 0, 7).payload.size(), 1u);
  EXPECT_EQ(transport.receive(1, 0, 7).payload.size(), 2u);
}

TEST(TransportTest, AbortWakesBlockedReceivers) {
  Transport transport(2);
  std::atomic<bool> threw{false};
  std::thread receiver([&] {
    try {
      transport.receive(1, 0, 1);
    } catch (const AbortedError&) {
      threw = true;
    }
  });
  transport.abort();
  receiver.join();
  EXPECT_TRUE(threw);
  // Aborted transports stay aborted: later receives throw immediately.
  EXPECT_THROW(transport.receive(0, 1, 1), AbortedError);
}

}  // namespace
}  // namespace cubist
