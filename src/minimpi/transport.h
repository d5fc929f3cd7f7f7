// Transport: the message-moving adaptor under the minimpi runtime.
//
// Comm and RuntimeState speak only this interface; HOW a message gets
// from rank to rank is an adaptor detail. The default adaptor is the
// original in-process mailbox (make_mailbox_transport), and the seam is
// what makes other backends — shared-memory rings, sockets, a recording
// fake for tests — pluggable without touching the collectives, the
// event trace or the verifier (see DESIGN.md, "Transport adaptor").
//
// Contract every adaptor must honor (the schedule verifier's one
// canonical replay assumes it):
//   * deliver never blocks;
//   * per (source, destination, tag) channel delivery is FIFO;
//   * receive names its source: it blocks on that one (source, tag)
//     channel until a message or abort() (then throws AbortedError).
//     There is no wildcard receive, so which send a receive consumes never
//     depends on arrival order;
//   * abort() wakes every blocked receiver, permanently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace cubist {

/// Thrown from blocking calls when another rank aborted the run.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("minimpi run aborted by another rank") {}
};

/// A message in flight. `arrival_time` is the virtual time at which the
/// receiver may consume it (sender clock at send + latency + transfer).
/// `trace_seq` is the sender-side event-trace index of the send (see
/// minimpi/event_trace.h), so the matching receive can record exactly
/// which send it consumed; `offset` is the
/// chunk offset the send recorded, which the receive records too.
struct Message {
  std::vector<std::byte> payload;
  double arrival_time = 0.0;
  std::uint64_t trace_seq = ~std::uint64_t{0};
  std::int64_t offset = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Adaptor name for reports ("mailbox", ...).
  virtual const char* name() const = 0;

  /// Enqueues `message` on the (src, dst, tag) channel. Never blocks.
  virtual void deliver(int dst, int src, std::uint64_t tag,
                       Message message) = 0;

  /// Blocks `rank` until a message from `src` with `tag` is available.
  virtual Message receive(int rank, int src, std::uint64_t tag) = 0;

  /// Wakes every blocked receiver with AbortedError, permanently.
  virtual void abort() = 0;
};

/// The default in-process adaptor: one mailbox per rank, messages matched
/// MPI-style by (source, tag), FIFO within a match.
std::unique_ptr<Transport> make_mailbox_transport(int num_ranks);

/// Builds the transport for a run of `num_ranks` ranks (Runtime::run's
/// injection point for custom adaptors).
using TransportFactory =
    std::function<std::unique_ptr<Transport>(int num_ranks)>;

}  // namespace cubist
