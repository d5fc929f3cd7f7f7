#include "minimpi/transport.h"

#include "common/error.h"
#include "minimpi/mailbox.h"

namespace cubist {
namespace {

/// The original in-process transport: one Mailbox per rank. This file is
/// the ONLY code outside mailbox.h allowed to name Mailbox or call its
/// queue methods (tools/lint.py enforces the boundary).
class MailboxTransport final : public Transport {
 public:
  explicit MailboxTransport(int num_ranks) {
    mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      mailboxes_.push_back(std::make_unique<Mailbox>());
    }
  }

  const char* name() const override { return "mailbox"; }

  void deliver(int dst, int src, std::uint64_t tag,
               Message message) override {
    box(dst).deliver(src, tag, std::move(message));
  }

  Message receive(int rank, int src, std::uint64_t tag) override {
    return box(rank).receive(src, tag);
  }

  void abort() override {
    for (auto& mailbox : mailboxes_) {
      mailbox->abort();
    }
  }

 private:
  Mailbox& box(int rank) {
    CUBIST_CHECK(rank >= 0 &&
                     rank < static_cast<int>(mailboxes_.size()),
                 "rank " << rank << " out of transport range");
    return *mailboxes_[static_cast<std::size_t>(rank)];
  }

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace

std::unique_ptr<Transport> make_mailbox_transport(int num_ranks) {
  CUBIST_CHECK(num_ranks >= 1, "need at least one rank");
  return std::make_unique<MailboxTransport>(num_ranks);
}

}  // namespace cubist
