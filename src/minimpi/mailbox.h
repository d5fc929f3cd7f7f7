// Mailbox: the per-rank message store of the in-process transport
// adaptor (minimpi/transport.cpp).
//
// Messages are matched MPI-style by (source rank, tag), FIFO within a
// match. Receives block until a matching message arrives or the runtime
// aborts (a sibling rank threw), in which case AbortedError unblocks every
// waiter so the process can shut down instead of deadlocking. Nothing
// outside the mailbox transport adaptor may use this class directly —
// runtime code goes through the Transport interface (tools/lint.py
// enforces the boundary).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

#include "minimpi/transport.h"

namespace cubist {

class Mailbox {
 public:
  void deliver(int source, std::uint64_t tag, Message message) {
    {
      std::lock_guard lock(mutex_);
      queues_[{source, tag}].push_back(std::move(message));
    }
    ready_.notify_all();
  }

  /// Blocks until a message from `source` with `tag` is available.
  Message receive(int source, std::uint64_t tag) {
    std::unique_lock lock(mutex_);
    auto key = std::make_pair(source, tag);
    ready_.wait(lock, [&] {
      if (aborted_) return true;
      auto it = queues_.find(key);
      return it != queues_.end() && !it->second.empty();
    });
    if (aborted_) throw AbortedError();
    auto& queue = queues_[key];
    Message message = std::move(queue.front());
    queue.pop_front();
    return message;
  }

  /// Wakes all blocked receivers with AbortedError.
  void abort() {
    {
      std::lock_guard lock(mutex_);
      aborted_ = true;
    }
    ready_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::pair<int, std::uint64_t>, std::deque<Message>> queues_;
  bool aborted_ = false;
};

}  // namespace cubist
