// Transport: the in-process message store under the minimpi runtime.
//
// One mailbox per rank; messages are matched MPI-style by (source rank,
// tag), FIFO within a match. Only Comm (minimpi/comm.cpp) moves messages
// through it (tools/lint.py enforces the boundary), so every message is
// clocked and recorded in the run's event trace.
//
// The contract the schedule verifier's one canonical replay relies on:
//   * deliver never blocks;
//   * per (source, destination, tag) channel delivery is FIFO;
//   * receive names its source: it blocks on that one (source, tag)
//     channel until a message or abort() (then throws AbortedError).
//     There is no wildcard receive, so which send a receive consumes never
//     depends on arrival order;
//   * abort() wakes every blocked receiver, permanently.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cubist {

/// Thrown from blocking calls when another rank aborted the run.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("minimpi run aborted by another rank") {}
};

/// A message in flight: the encoded payload, whose size is its wire
/// bytes, and what the receive's trace event records beside them (see
/// minimpi/event_trace.h).
struct Message {
  std::vector<std::byte> payload;
  /// Virtual time at which the receiver may consume it (sender clock at
  /// send + latency + transfer).
  double arrival_time = 0.0;
  /// Sender-side event-trace index of the send, so the matching receive
  /// records exactly which send it consumed.
  std::uint64_t trace_seq = ~std::uint64_t{0};
  /// Logical (dense) bytes and chunk offset the send recorded, which the
  /// receive records too.
  std::int64_t logical_bytes = 0;
  std::int64_t offset = 0;
};

class Transport {
 public:
  explicit Transport(int num_ranks);
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Enqueues `message` on the (src, dst, tag) channel. Never blocks.
  void deliver(int dst, int src, std::uint64_t tag, Message message);

  /// Blocks `rank` until a message from `src` with `tag` is available.
  Message receive(int rank, int src, std::uint64_t tag);

  /// Wakes every blocked receiver with AbortedError, permanently.
  void abort();

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::map<std::pair<int, std::uint64_t>, std::deque<Message>> queues;
    bool aborted = false;
  };

  Mailbox& box(int rank);

  std::vector<Mailbox> mailboxes_;
};

}  // namespace cubist
