#include "analysis/schedule_ir.h"

#include <map>
#include <sstream>
#include <utility>

#include "analysis/comm_plan.h"
#include "common/dimset.h"

namespace cubist {
namespace {

std::string view_label(std::uint32_t mask) {
  return DimSet::from_mask(mask).to_string();
}

}  // namespace

const char* to_string(ScheduleMutation mutation) {
  switch (mutation) {
    case ScheduleMutation::kNone:
      return "none";
    case ScheduleMutation::kDropSend:
      return "drop_send";
    case ScheduleMutation::kTagCollision:
      return "tag_collision";
  }
  return "unknown";
}

std::string to_string(const CommEvent& e) {
  std::ostringstream out;
  out << cubist::to_string(e.kind) << " view " << view_label(e.view) << "@"
      << e.offset << " x" << e.elements;
  switch (e.kind) {
    case CommEvent::Kind::kSend:
      out << " -> r" << e.peer;
      break;
    case CommEvent::Kind::kRecv:
      out << " <- r" << e.peer;
      break;
    case CommEvent::Kind::kCombine:
      out << " of r" << e.peer;
      break;
  }
  if (e.tag != kTagFromView) out << " tag=" << e.tag;
  return out.str();
}

std::string apply_schedule_mutation(CommPlan& plan,
                                    ScheduleMutation mutation) {
  switch (mutation) {
    case ScheduleMutation::kNone:
      return "";
    case ScheduleMutation::kDropSend: {
      // Delete the LAST send of the highest sending rank: its stream stays
      // FIFO-consistent up to the drop, so the receiver blocks forever on
      // exactly the dropped message.
      for (int r = plan.num_ranks - 1; r >= 0; --r) {
        std::vector<CommEvent>& events =
            plan.ranks[static_cast<std::size_t>(r)].ops;
        for (std::size_t i = events.size(); i-- > 0;) {
          if (events[i].kind != CommEvent::Kind::kSend) continue;
          std::ostringstream out;
          out << "dropped r" << r << "[" << i << "] " << to_string(events[i]);
          events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
          return out.str();
        }
      }
      return "";
    }
    case ScheduleMutation::kTagCollision: {
      // The first two receives of one rank on one (source, wire tag)
      // channel whose chunks differ: swapped, each consumes the other
      // chunk's message, since the channel still delivers in send order.
      for (int r = 0; r < plan.num_ranks; ++r) {
        std::vector<CommEvent>& events =
            plan.ranks[static_cast<std::size_t>(r)].ops;
        std::map<std::pair<int, std::uint64_t>, std::size_t> first;
        for (std::size_t j = 0; j < events.size(); ++j) {
          if (events[j].kind != CommEvent::Kind::kRecv) continue;
          const auto [it, fresh] =
              first.try_emplace({events[j].peer, events[j].wire_tag()}, j);
          const std::size_t i = it->second;
          if (fresh || events[i].offset == events[j].offset) continue;
          std::ostringstream out;
          out << "rank " << r << " receives view "
              << view_label(events[i].view) << "@" << events[j].offset
              << " before @" << events[i].offset << " from rank "
              << events[i].peer << " under the shared wire tag "
              << events[i].wire_tag();
          std::swap(events[i], events[j]);
          if (j + 1 < events.size() &&
              events[i + 1].kind == CommEvent::Kind::kCombine &&
              events[j + 1].kind == CommEvent::Kind::kCombine) {
            std::swap(events[i + 1], events[j + 1]);
          }
          return out.str();
        }
      }
      return "";
    }
  }
  return "";
}

}  // namespace cubist
