#include "analysis/hb_auditor.h"

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace cubist {
namespace {

/// Reference to one trace event.
struct TraceRef {
  int rank = -1;
  std::uint64_t index = 0;
  bool operator<(const TraceRef& o) const {
    return rank != o.rank ? rank < o.rank : index < o.index;
  }
};

std::string describe(const EventTrace& trace, const TraceRef& ref) {
  const TraceEvent& e =
      trace.ranks[static_cast<std::size_t>(ref.rank)][ref.index];
  std::ostringstream out;
  out << "r" << ref.rank << "[" << ref.index << "] "
      << cubist::to_string(e.kind) << " tag=" << e.tag << " x" << e.units;
  if (e.peer >= 0) {
    out << (e.kind == TraceEventKind::kSend ? " -> r" : " <- r") << e.peer;
  }
  return out.str();
}

void add_violation(HbAuditReport& report, ViolationCode code, int rank,
                   std::int64_t expected, std::int64_t actual,
                   std::string message) {
  Violation violation;
  violation.code = code;
  violation.rank = rank;
  violation.view_mask = kNoView;
  violation.expected = expected;
  violation.actual = actual;
  violation.message = std::move(message);
  report.violations.push_back(std::move(violation));
}

class Auditor {
 public:
  Auditor(const EventTrace& trace, HbAuditReport& report)
      : trace_(trace),
        report_(report),
        p_(static_cast<int>(trace.ranks.size())) {}

  void run() {
    report_.events = trace_.total_events();
    validate_structure();
    replay();
  }

 private:
  const std::vector<TraceEvent>& events_of(int rank) const {
    return trace_.ranks[static_cast<std::size_t>(rank)];
  }
  const TraceEvent& event_at(const TraceRef& ref) const {
    return events_of(ref.rank)[ref.index];
  }
  bool is_bad(int rank, std::uint64_t index) const {
    return bad_.count({rank, index}) != 0;
  }

  /// Cross-validates every receive's matched send and every combine's
  /// operand receive before anything trusts them.
  void validate_structure() {
    std::map<TraceRef, TraceRef> consumed_by;
    for (int r = 0; r < p_; ++r) {
      const std::vector<TraceEvent>& events = events_of(r);
      for (std::uint64_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        if (e.kind == TraceEventKind::kRecv) {
          validate_receive(r, i, e, consumed_by);
        } else if (e.kind == TraceEventKind::kCombine) {
          validate_combine(r, i, e);
        }
      }
    }
    // Every send some receive never consumed.
    for (int r = 0; r < p_; ++r) {
      const std::vector<TraceEvent>& events = events_of(r);
      for (std::uint64_t i = 0; i < events.size(); ++i) {
        if (events[i].kind != TraceEventKind::kSend) continue;
        if (consumed_by.count({r, i}) != 0) continue;
        std::ostringstream msg;
        msg << "send never consumed by any receive: "
            << describe(trace_, {r, i});
        add_violation(report_, ViolationCode::kUnmatchedSend, r, 1, 0,
                      msg.str());
      }
    }
  }

  void validate_receive(int r, std::uint64_t i, const TraceEvent& e,
                        std::map<TraceRef, TraceRef>& consumed_by) {
    if (e.peer < 0 || e.peer >= p_) {
      std::ostringstream msg;
      msg << "receive names source rank " << e.peer << " outside the run: "
          << describe(trace_, {r, i});
      add_violation(report_, ViolationCode::kMalformedTrace, r, 0, e.peer,
                    msg.str());
      bad_.insert({r, i});
      return;
    }
    if (e.match_seq == kNoTraceSeq ||
        e.match_seq >= events_of(e.peer).size() ||
        events_of(e.peer)[e.match_seq].kind != TraceEventKind::kSend) {
      std::ostringstream msg;
      msg << "matched send missing from the trace (dropped or corrupted "
             "message): "
          << describe(trace_, {r, i});
      add_violation(report_, ViolationCode::kUnmatchedRecv, r, 0, 0,
                    msg.str());
      bad_.insert({r, i});
      return;
    }
    const TraceRef send_ref{e.peer, e.match_seq};
    const TraceEvent& send = event_at(send_ref);
    if (send.peer != r) {
      std::ostringstream msg;
      msg << describe(trace_, {r, i}) << " consumed a send addressed to rank "
          << send.peer << " (" << describe(trace_, send_ref) << ")";
      add_violation(report_, ViolationCode::kMalformedTrace, r, r, send.peer,
                    msg.str());
      bad_.insert({r, i});
      return;
    }
    if (send.tag != e.tag) {
      std::ostringstream msg;
      msg << "wire-tag collision: " << describe(trace_, {r, i})
          << " consumed a message sent under tag " << send.tag << " ("
          << describe(trace_, send_ref) << ")";
      add_violation(report_, ViolationCode::kTagCollision, r,
                    static_cast<std::int64_t>(e.tag),
                    static_cast<std::int64_t>(send.tag), msg.str());
      bad_.insert({r, i});
      return;
    }
    const auto [it, inserted] = consumed_by.insert({send_ref, {r, i}});
    if (!inserted) {
      std::ostringstream msg;
      msg << "send consumed twice: " << describe(trace_, send_ref) << " by "
          << describe(trace_, it->second) << " and by "
          << describe(trace_, {r, i});
      add_violation(report_, ViolationCode::kMalformedTrace, r, 1, 2,
                    msg.str());
      bad_.insert({r, i});
    }
  }

  void validate_combine(int r, std::uint64_t i, const TraceEvent& e) {
    ++report_.combines_checked;
    const std::vector<TraceEvent>& events = events_of(r);
    if (e.operand_seq == kNoTraceSeq || e.operand_seq >= i ||
        events[e.operand_seq].kind != TraceEventKind::kRecv ||
        events[e.operand_seq].tag != e.tag) {
      std::ostringstream msg;
      msg << "combine operand provenance broken: " << describe(trace_, {r, i})
          << " does not name a preceding same-tag receive";
      add_violation(report_, ViolationCode::kMalformedTrace, r, 0,
                    static_cast<std::int64_t>(e.operand_seq), msg.str());
      bad_.insert({r, i});
    }
  }

  /// Sweeps all ranks forward along the trace's happens-before order:
  /// program order, message edges (a receive waits until its matched
  /// send is swept) and global barriers (the g-th barrier of every rank
  /// is one round). Causality only stalls on a malformed trace; the stall
  /// is reported unless a structural violation already explains it.
  void replay() {
    std::vector<std::uint64_t> cursor(static_cast<std::size_t>(p_), 0);
    const auto done = [&](int r) {
      return cursor[static_cast<std::size_t>(r)] >= events_of(r).size();
    };
    while (true) {
      bool progress = false;
      for (int r = 0; r < p_; ++r) {
        while (!done(r)) {
          const std::uint64_t i = cursor[static_cast<std::size_t>(r)];
          const TraceEvent& e = events_of(r)[i];
          if (e.kind == TraceEventKind::kBarrier) break;
          if (e.kind == TraceEventKind::kRecv && !is_bad(r, i)) {
            if (cursor[static_cast<std::size_t>(e.peer)] <= e.match_seq) {
              break;
            }
            ++report_.message_edges;
          }
          ++cursor[static_cast<std::size_t>(r)];
          progress = true;
        }
      }
      if (progress) continue;
      bool all_done = true;
      bool all_at_barrier = true;
      for (int r = 0; r < p_; ++r) {
        if (done(r)) {
          all_at_barrier = false;
          continue;
        }
        all_done = false;
        const TraceEvent& e =
            events_of(r)[cursor[static_cast<std::size_t>(r)]];
        if (e.kind != TraceEventKind::kBarrier) all_at_barrier = false;
      }
      if (all_done) return;
      if (all_at_barrier) {
        for (std::uint64_t& at : cursor) ++at;
        ++report_.barrier_rounds;
        continue;
      }
      // Stalled: some rank waits on an edge that can never resolve.
      if (report_.violations.empty()) {
        for (int r = 0; r < p_; ++r) {
          if (done(r)) continue;
          std::ostringstream msg;
          msg << "happens-before replay stalled; first blocked rank: "
              << describe(trace_, {r, cursor[static_cast<std::size_t>(r)]});
          add_violation(report_, ViolationCode::kMalformedTrace, r, 0, 0,
                        msg.str());
          break;
        }
      }
      return;
    }
  }

  const EventTrace& trace_;
  HbAuditReport& report_;
  const int p_;
  std::set<std::pair<int, std::uint64_t>> bad_;
};

}  // namespace

std::string HbAuditReport::to_string() const {
  std::ostringstream out;
  out << (ok() ? "trace OK" : "trace INVALID") << " (" << events
      << " events, " << message_edges << " message edges, " << barrier_rounds
      << " barrier rounds, " << combines_checked << " combines)";
  for (const Violation& violation : violations) {
    out << "\n" << violation.to_string();
  }
  return out.str();
}

std::string HbAuditReport::to_json() const {
  std::ostringstream out;
  out << "{\"ok\":" << (ok() ? "true" : "false") << ",\"events\":" << events
      << ",\"message_edges\":" << message_edges
      << ",\"barrier_rounds\":" << barrier_rounds
      << ",\"combines_checked\":" << combines_checked
      << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& violation = violations[i];
    if (i > 0) out << ",";
    out << "{\"code\":\"" << cubist::to_string(violation.code)
        << "\",\"rank\":" << violation.rank
        << ",\"expected\":" << violation.expected
        << ",\"actual\":" << violation.actual << ",\"message\":\""
        << json_escape(violation.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

HbAuditReport audit_event_trace(const EventTrace& trace) {
  HbAuditReport report;
  Auditor auditor(trace, report);
  auditor.run();
  return report;
}

}  // namespace cubist
