#include "minimpi/transport.h"

#include "common/error.h"

namespace cubist {

Transport::Transport(int num_ranks)
    : mailboxes_(static_cast<std::size_t>(num_ranks)) {}

Transport::Mailbox& Transport::box(int rank) {
  CUBIST_CHECK(rank >= 0 && rank < static_cast<int>(mailboxes_.size()),
               "rank " << rank << " out of transport range");
  return mailboxes_[static_cast<std::size_t>(rank)];
}

void Transport::deliver(int dst, int src, std::uint64_t tag,
                        Message message) {
  Mailbox& mailbox = box(dst);
  {
    std::lock_guard lock(mailbox.mutex);
    mailbox.queues[{src, tag}].push_back(std::move(message));
  }
  mailbox.ready.notify_all();
}

Message Transport::receive(int rank, int src, std::uint64_t tag) {
  Mailbox& mailbox = box(rank);
  std::unique_lock lock(mailbox.mutex);
  std::deque<Message>& queue = mailbox.queues[{src, tag}];
  mailbox.ready.wait(lock,
                     [&] { return mailbox.aborted || !queue.empty(); });
  if (mailbox.aborted) throw AbortedError();
  Message message = std::move(queue.front());
  queue.pop_front();
  return message;
}

void Transport::abort() {
  for (Mailbox& mailbox : mailboxes_) {
    {
      std::lock_guard lock(mailbox.mutex);
      mailbox.aborted = true;
    }
    mailbox.ready.notify_all();
  }
}

}  // namespace cubist
