#include "minimpi/event_trace.h"

#include <deque>
#include <tuple>

namespace cubist {

VolumeReport volume_of(const EventTrace& trace) {
  VolumeReport volume;
  for (const std::vector<TraceEvent>& events : trace.ranks) {
    for (const TraceEvent& event : events) {
      if (event.kind != TraceEventKind::kSend) continue;
      volume.total_messages += 1;
      volume.total_bytes += event.units;
      volume.total_wire_bytes += event.wire;
      volume.bytes_by_tag[event.tag] += event.units;
      volume.wire_bytes_by_tag[event.tag] += event.wire;
    }
  }
  return volume;
}

std::vector<std::size_t> replay(
    EventTrace& programs,
    const std::function<void(int, std::size_t, const TraceEvent&)>& visit) {
  for (std::vector<TraceEvent>& events : programs.ranks) {
    for (TraceEvent& event : events) {
      event.match_seq = kNoTraceSeq;
      event.operand_seq = kNoTraceSeq;
    }
  }
  const std::size_t p = programs.ranks.size();
  // The sends in flight per (source, destination, tag) channel, FIFO.
  std::map<std::tuple<int, int, std::uint64_t>, std::deque<std::size_t>>
      channels;
  std::vector<std::uint64_t> last_recv(p, kNoTraceSeq);
  std::vector<std::size_t> next(p, 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t r = 0; r < p; ++r) {
      const int rank = static_cast<int>(r);
      std::vector<TraceEvent>& events = programs.ranks[r];
      for (; next[r] < events.size(); ++next[r]) {
        TraceEvent& event = events[next[r]];
        if (event.kind == TraceEventKind::kSend) {
          channels[{rank, event.peer, event.tag}].push_back(next[r]);
        } else if (event.kind == TraceEventKind::kRecv) {
          const auto it = channels.find({event.peer, rank, event.tag});
          if (it == channels.end() || it->second.empty()) break;
          event.match_seq = it->second.front();
          it->second.pop_front();
          last_recv[r] = next[r];
        } else {
          event.operand_seq = last_recv[r];
        }
        if (visit) visit(rank, next[r], event);
        progress = true;
      }
    }
  }
  return next;
}

}  // namespace cubist
