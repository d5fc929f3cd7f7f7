#include "analysis/schedule_verifier.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "array/aggregate.h"
#include "common/error.h"
#include "lattice/cube_lattice.h"
#include "lattice/memory_sim.h"
#include "lattice/volume_model.h"
#include "minimpi/proc_grid.h"

namespace cubist {
namespace {

std::string view_name(std::uint32_t mask) {
  if (mask == kNoView) return "-";
  return DimSet::from_mask(mask).to_string();
}

void add_violation(AnalysisReport& report, ViolationCode code, int rank,
                   std::uint32_t view_mask, std::int64_t expected,
                   std::int64_t actual, std::string message) {
  Violation violation;
  violation.code = code;
  violation.rank = rank;
  violation.view_mask = view_mask;
  violation.expected = expected;
  violation.actual = actual;
  violation.message = std::move(message);
  report.violations.push_back(std::move(violation));
}

/// Checks a matched (send, recv) pair: the message must be the chunk the
/// receive expects (another chunk offset means two chunks of one view
/// collide on its tag and the receive consumed the wrong one), and the
/// logical sizes must agree.
void check_match(const TraceEvent& sent, const TraceEvent& op, int rank,
                 AnalysisReport& report) {
  const std::uint32_t view = view_of_tag(op.tag);
  if (sent.offset != op.offset) {
    std::ostringstream msg;
    msg << "rank " << rank << " receives view " << view_name(view) << "@"
        << op.offset << " but the matching send from rank " << op.peer
        << " carries its chunk @" << sent.offset << " under the same tag";
    add_violation(report, ViolationCode::kTagCollision, rank, view,
                  op.offset, sent.offset, msg.str());
    return;
  }
  if (sent.units != op.units) {
    std::ostringstream msg;
    msg << "rank " << rank << " expects " << op.units
        << " logical bytes from rank " << op.peer << " for view "
        << view_name(view) << " but the matching send carries "
        << sent.units;
    add_violation(report, ViolationCode::kMessageSizeMismatch, rank, view,
                  op.units, sent.units, msg.str());
  }
}

/// Replays the plan's programs under the transport's rules (`replay`,
/// minimpi/event_trace.h) and reports, on the matches it made, payload-
/// size disagreements and chunk collisions, then unmatched traffic and —
/// where ranks stopped — the wait-for-graph cycle. The replay follows one
/// canonical interleaving, and that decides every other: a receive can
/// only take the head of its one channel, so each receive matches the
/// same send in every interleaving and a receive that blocks here blocks
/// in all of them.
void check_transport(const CommPlan& plan, AnalysisReport& report) {
  const int p = plan.num_ranks;
  EventTrace programs = plan.events;
  const std::vector<std::size_t> stopped_at = replay(programs);
  const auto event = [&](int rank, std::size_t index) -> const TraceEvent& {
    return programs.ranks[static_cast<std::size_t>(rank)][index];
  };
  const auto stop = [&](int rank) {
    return stopped_at[static_cast<std::size_t>(rank)];
  };
  // A stuck rank stopped on a receive no executed send satisfies.
  const auto stuck = [&](int rank) {
    return stop(rank) < programs.ranks[static_cast<std::size_t>(rank)].size();
  };
  // The sends the receives that ran took, as (rank, event index).
  std::set<std::pair<int, std::uint64_t>> taken;
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < stop(r); ++i) {
      const TraceEvent& op = event(r, i);
      if (op.kind != TraceEventKind::kRecv) continue;
      check_match(event(op.peer, op.match_seq), op, r, report);
      taken.emplace(op.peer, op.match_seq);
    }
  }

  // Wait-for edges among stuck ranks; cycles are deadlocks, the rest are
  // receives whose sender terminated (or is itself a deadlock victim).
  std::vector<int> color(static_cast<std::size_t>(p), 0);  // 0=new 1=path 2=done
  std::vector<bool> on_cycle(static_cast<std::size_t>(p), false);
  for (int start = 0; start < p; ++start) {
    if (!stuck(start) || color[static_cast<std::size_t>(start)] != 0) {
      continue;
    }
    std::vector<int> path;
    int r = start;
    while (r >= 0 && r < p && stuck(r) &&
           color[static_cast<std::size_t>(r)] == 0) {
      color[static_cast<std::size_t>(r)] = 1;
      path.push_back(r);
      r = event(r, stop(r)).peer;
    }
    if (r >= 0 && r < p && color[static_cast<std::size_t>(r)] == 1) {
      // Found a cycle; mark its members and report it once.
      std::ostringstream msg;
      msg << "wait-for cycle:";
      bool in_cycle = false;
      int cycle_head = kNoRank;
      for (int member : path) {
        if (member == r) in_cycle = true;
        if (in_cycle) {
          on_cycle[static_cast<std::size_t>(member)] = true;
          if (cycle_head == kNoRank) cycle_head = member;
          const TraceEvent& op = event(member, stop(member));
          msg << " rank " << member << " waits on rank " << op.peer
              << " (view " << view_name(view_of_tag(op.tag)) << ");";
        }
      }
      add_violation(report, ViolationCode::kDeadlock, cycle_head,
                    view_of_tag(event(cycle_head, stop(cycle_head)).tag), 0,
                    0, msg.str());
    }
    for (int member : path) color[static_cast<std::size_t>(member)] = 2;
  }
  for (int r = 0; r < p; ++r) {
    if (!stuck(r) || on_cycle[static_cast<std::size_t>(r)]) continue;
    const TraceEvent& op = event(r, stop(r));
    const std::uint32_t view = view_of_tag(op.tag);
    std::ostringstream msg;
    msg << "rank " << r << " blocks forever receiving " << op.units
        << " logical bytes of view " << view_name(view) << " from rank "
        << op.peer;
    add_violation(report, ViolationCode::kUnmatchedRecv, r, view, op.units,
                  0, msg.str());
  }
  // A send that ran and that no receive took.
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < stop(r); ++i) {
      const TraceEvent& send = event(r, i);
      if (send.kind != TraceEventKind::kSend || taken.count({r, i}) != 0) {
        continue;
      }
      const std::uint32_t view = view_of_tag(send.tag);
      std::ostringstream msg;
      msg << "rank " << r << " sends " << send.units
          << " logical bytes of view " << view_name(view) << " to rank "
          << send.peer << " but no receive consumes them";
      add_violation(report, ViolationCode::kUnmatchedSend, r, view, 0,
                    send.units, msg.str());
    }
  }
}

/// Per-edge volumes against Lemma 1 and the total against Theorem 3,
/// summed from the planned construction sends (elements_by_view), so
/// mutations to the events — including test-injected ones — are always
/// caught. The gather's sends (tags from kGatherTagBase up) are result
/// collection, which the closed forms leave out.
void check_volume(const ScheduleSpec& spec, const CommPlan& plan,
                  AnalysisReport& report) {
  const int n = static_cast<int>(spec.sizes.size());
  const std::uint32_t root_mask = DimSet::full(n).mask();
  const std::map<std::uint32_t, std::int64_t> planned_by_view =
      elements_by_view(plan);
  for (std::uint32_t mask = 0; mask < root_mask; ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    const std::int64_t predicted =
        edge_volume_elements(spec.sizes, spec.log_splits, view.complement(n));
    if (predicted > 0) {
      report.dense_bound_bytes_by_view[mask] =
          predicted * static_cast<std::int64_t>(sizeof(Value));
    }
    const auto it = planned_by_view.find(mask);
    const std::int64_t planned =
        it == planned_by_view.end() ? std::int64_t{0} : it->second;
    if (planned != predicted) {
      std::ostringstream msg;
      msg << "view " << view_name(mask) << ": planned reduction volume "
          << planned << " elements, Lemma 1 predicts " << predicted;
      add_violation(report, ViolationCode::kEdgeVolumeMismatch, kNoRank, mask,
                    predicted, planned, msg.str());
    }
  }
  report.planned_total_elements = 0;
  for (const auto& [mask, elements] : planned_by_view) {
    report.planned_total_elements += elements;
    if (mask >= root_mask) {
      std::ostringstream msg;
      msg << "planned traffic (" << elements << " elements) under tag "
          << mask << " which is not a proper lattice view";
      add_violation(report, ViolationCode::kUnknownViewTag, kNoRank, mask, 0,
                    elements, msg.str());
    }
  }
  report.planned_messages = plan.total_messages();
  report.predicted_total_elements =
      total_volume_elements(spec.sizes, spec.log_splits);
  if (report.planned_total_elements != report.predicted_total_elements) {
    std::ostringstream msg;
    msg << "planned total volume " << report.planned_total_elements
        << " elements, Theorem 3 predicts "
        << report.predicted_total_elements;
    add_violation(report, ViolationCode::kTotalVolumeMismatch, kNoRank, kNoView,
                  report.predicted_total_elements,
                  report.planned_total_elements, msg.str());
  }
}

/// Replays every rank's view-block lifetimes against the Theorem 4 bound.
void check_memory(const ScheduleSpec& spec, const CommPlan& plan,
                  AnalysisReport& report) {
  const CubeLattice lattice(spec.sizes);
  report.memory_bound_bytes =
      parallel_memory_bound(lattice, spec.log_splits);
  for (int r = 0; r < plan.num_ranks; ++r) {
    MemoryLedger ledger;
    for (const PlannedMemoryEvent& event :
         plan.ranks[static_cast<std::size_t>(r)].memory) {
      if (event.kind == PlannedMemoryEvent::Kind::kAlloc) {
        ledger.alloc(event.bytes);
      } else {
        ledger.release(event.bytes);
      }
    }
    report.max_peak_live_bytes =
        std::max(report.max_peak_live_bytes, ledger.peak_bytes());
    if (ledger.peak_bytes() > report.memory_bound_bytes) {
      std::ostringstream msg;
      msg << "rank " << r << " peaks at " << ledger.peak_bytes()
          << " live view-block bytes, above the Theorem 4 bound of "
          << report.memory_bound_bytes;
      add_violation(report, ViolationCode::kMemoryBoundExceeded, r, kNoView,
                    report.memory_bound_bytes, ledger.peak_bytes(), msg.str());
    }
    if (ledger.live_bytes() != 0) {
      std::ostringstream msg;
      msg << "rank " << r << " ends the schedule with " << ledger.live_bytes()
          << " live view-block bytes";
      add_violation(report, ViolationCode::kMemoryLeak, r, kNoView, 0,
                    ledger.live_bytes(), msg.str());
    }
    const std::int64_t scratch =
        plan.ranks[static_cast<std::size_t>(r)].max_scan_scratch_bytes;
    report.max_scan_scratch_bytes =
        std::max(report.max_scan_scratch_bytes, scratch);
    if (scratch > kScanScratchBudgetBytes) {
      std::ostringstream msg;
      msg << "rank " << r << " plans " << scratch
          << " transient scan-scratch bytes, above the scan-scratch "
             "budget of "
          << kScanScratchBudgetBytes;
      add_violation(report, ViolationCode::kMemoryBoundExceeded, r, kNoView,
                    kScanScratchBudgetBytes, scratch, msg.str());
    }
  }
}

/// Every non-root view must be finalized on exactly the lead processors
/// of its aggregated dimension set.
void check_leads(const ScheduleSpec& spec, const CommPlan& plan,
                 AnalysisReport& report) {
  const ProcGrid grid(spec.log_splits);
  const int n = grid.ndims();
  const std::uint32_t root_mask = DimSet::full(n).mask();
  for (int r = 0; r < plan.num_ranks; ++r) {
    std::vector<bool> finalized(root_mask, false);
    for (std::uint32_t mask :
         plan.ranks[static_cast<std::size_t>(r)].final_views) {
      if (mask >= root_mask) {
        std::ostringstream msg;
        msg << "rank " << r << " finalizes tag " << mask
            << " which is not a proper lattice view";
        add_violation(report, ViolationCode::kUnknownViewTag, r, mask, 0, 0,
                      msg.str());
        continue;
      }
      finalized[mask] = true;
    }
    for (std::uint32_t mask = 0; mask < root_mask; ++mask) {
      const DimSet aggregated = DimSet::from_mask(mask).complement(n);
      const bool is_lead = grid.is_lead_for(r, aggregated);
      if (finalized[mask] && !is_lead) {
        std::ostringstream msg;
        msg << "rank " << r << " finalizes view " << view_name(mask)
            << " but is not a lead processor for it";
        add_violation(report, ViolationCode::kWrongLead, r, mask, 0, 1,
                      msg.str());
      } else if (!finalized[mask] && is_lead) {
        std::ostringstream msg;
        msg << "rank " << r << " is the lead processor for view "
            << view_name(mask) << " but never finalizes it";
        add_violation(report, ViolationCode::kWrongLead, r, mask, 1, 0,
                      msg.str());
      }
    }
  }
}

/// One field of an event: its name, the planned and the recorded value.
struct Field {
  const char* name = nullptr;
  std::int64_t planned = 0;
  std::int64_t recorded = 0;
};

/// The first field in which recorded event `e` departs from planned `op`,
/// an event of the replay-linked plan (name null when none does). Only
/// the wire sizes are the run's: a receive must have taken the wire bytes
/// its consumed send recorded (by then known to be the planned match, a
/// send of the plan, so `op.peer` is a rank of the trace), and a send's
/// own wire size is check_wire's.
Field first_divergence(const EventTrace& trace, const TraceEvent& op,
                       const TraceEvent& e) {
  const auto seq = [](std::uint64_t index) {
    return index == kNoTraceSeq ? std::int64_t{-1}
                                : static_cast<std::int64_t>(index);
  };
  std::int64_t wire = op.kind == TraceEventKind::kSend ? e.wire : op.wire;
  if (op.kind == TraceEventKind::kRecv && op.match_seq != kNoTraceSeq) {
    const std::vector<TraceEvent>& sender =
        trace.ranks[static_cast<std::size_t>(op.peer)];
    if (op.match_seq < sender.size()) wire = sender[op.match_seq].wire;
  }
  for (const Field& field : {
           Field{"kind", static_cast<std::int64_t>(op.kind),
                 static_cast<std::int64_t>(e.kind)},
           Field{"peer", op.peer, e.peer},
           Field{"wire tag", static_cast<std::int64_t>(op.tag),
                 static_cast<std::int64_t>(e.tag)},
           Field{"chunk offset", op.offset, e.offset},
           Field{"consumed send", seq(op.match_seq), seq(e.match_seq)},
           Field{"operand", seq(op.operand_seq), seq(e.operand_seq)},
           Field{"logical size", op.units, e.units},
           Field{"wire size", wire, e.wire},
       }) {
    if (field.planned != field.recorded) return field;
  }
  return {};
}

/// Checks recorded send `e`, event `index` of `rank`, against the codec's
/// per-message contract: its wire size never exceeds its logical size,
/// and equals it with the codec off. Reports a departure and returns
/// true; returns false when there is none (or `e` is no send).
bool check_wire(const ScheduleSpec& spec, int rank, std::size_t index,
                const TraceEvent& e, AnalysisReport& report) {
  if (e.kind != TraceEventKind::kSend) return false;
  const bool over = e.wire > e.units;
  if (!over && (spec.reduce.encode_wire || e.wire == e.units)) return false;
  std::ostringstream msg;
  msg << "rank " << rank << " event " << index << " puts " << e.wire
      << " bytes on the wire for " << e.units << " logical bytes"
      << (over ? "" : " with the codec off") << ": recorded " << describe(e);
  add_violation(report,
                over ? ViolationCode::kWireVolumeExceedsBound
                     : ViolationCode::kTraceMismatch,
                rank, view_of_tag(e.tag), e.units, e.wire, msg.str());
  return true;
}

}  // namespace

std::string json_escape(const std::string& text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::ostringstream out;
  for (char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  return out.str();
}

const char* to_string(ViolationCode code) {
  switch (code) {
    case ViolationCode::kUnmatchedSend:
      return "unmatched_send";
    case ViolationCode::kUnmatchedRecv:
      return "unmatched_recv";
    case ViolationCode::kDeadlock:
      return "deadlock";
    case ViolationCode::kMessageSizeMismatch:
      return "message_size_mismatch";
    case ViolationCode::kEdgeVolumeMismatch:
      return "edge_volume_mismatch";
    case ViolationCode::kTotalVolumeMismatch:
      return "total_volume_mismatch";
    case ViolationCode::kMemoryBoundExceeded:
      return "memory_bound_exceeded";
    case ViolationCode::kMemoryLeak:
      return "memory_leak";
    case ViolationCode::kWrongLead:
      return "wrong_lead";
    case ViolationCode::kWireVolumeExceedsBound:
      return "wire_volume_exceeds_bound";
    case ViolationCode::kUnknownViewTag:
      return "unknown_view_tag";
    case ViolationCode::kTagCollision:
      return "tag_collision";
    case ViolationCode::kTraceMismatch:
      return "trace_mismatch";
  }
  return "unknown";
}

std::string describe(const TraceEvent& e) {
  std::ostringstream out;
  out << to_string(e.kind) << " tag " << e.tag << " ("
      << (e.tag >= kGatherTagBase ? "gather " : "") << "view "
      << view_name(view_of_tag(e.tag)) << ") @" << e.offset << " x"
      << e.units;
  switch (e.kind) {
    case TraceEventKind::kSend:
      out << " -> r" << e.peer;
      break;
    case TraceEventKind::kRecv:
      out << " <- r" << e.peer;
      break;
    case TraceEventKind::kCombine:
      out << " of r" << e.peer;
      break;
  }
  if (e.wire != 0) out << " wire " << e.wire;
  if (e.match_seq != kNoTraceSeq) out << " consumed #" << e.match_seq;
  if (e.operand_seq != kNoTraceSeq) out << " operand #" << e.operand_seq;
  return out.str();
}

std::string Violation::to_string() const {
  std::ostringstream out;
  out << "[" << cubist::to_string(code) << "] view=" << view_name(view_mask)
      << " rank=" << rank << " expected=" << expected << " actual=" << actual
      << ": " << message;
  return out.str();
}

std::string AnalysisReport::to_string() const {
  std::ostringstream out;
  out << (ok() ? "schedule OK" : "schedule INVALID") << " (planned "
      << planned_messages << " messages, " << planned_total_elements
      << " elements; Theorem 3 predicts " << predicted_total_elements
      << "; peak live " << max_peak_live_bytes << " bytes vs Theorem 4 bound "
      << memory_bound_bytes << "; transient scan scratch <= "
      << max_scan_scratch_bytes << " bytes)";
  for (const Violation& violation : violations) {
    out << "\n" << violation.to_string();
  }
  return out.str();
}

std::string AnalysisReport::to_json() const {
  std::ostringstream out;
  out << "{\"ok\":" << (ok() ? "true" : "false")
      << ",\"planned_total_elements\":" << planned_total_elements
      << ",\"predicted_total_elements\":" << predicted_total_elements
      << ",\"planned_messages\":" << planned_messages
      << ",\"max_peak_live_bytes\":" << max_peak_live_bytes
      << ",\"memory_bound_bytes\":" << memory_bound_bytes
      << ",\"max_scan_scratch_bytes\":" << max_scan_scratch_bytes
      << ",\"dense_bound_bytes_by_view\":{";
  bool first_bound = true;
  for (const auto& [mask, bytes] : dense_bound_bytes_by_view) {
    if (!first_bound) out << ",";
    first_bound = false;
    out << "\"" << mask << "\":" << bytes;
  }
  out << "},\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& violation = violations[i];
    if (i > 0) out << ",";
    out << "{\"code\":\"" << cubist::to_string(violation.code)
        << "\",\"rank\":" << violation.rank
        << ",\"view_mask\":" << violation.view_mask
        << ",\"expected\":" << violation.expected
        << ",\"actual\":" << violation.actual << ",\"message\":\""
        << json_escape(violation.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

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
        std::vector<TraceEvent>& events =
            plan.events.ranks[static_cast<std::size_t>(r)];
        for (std::size_t i = events.size(); i-- > 0;) {
          if (events[i].kind != TraceEventKind::kSend) continue;
          std::ostringstream out;
          out << "dropped r" << r << "[" << i << "] " << describe(events[i]);
          events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
          return out.str();
        }
      }
      return "";
    }
    case ScheduleMutation::kTagCollision: {
      // The first two receives of one rank on one (source, tag) channel
      // whose chunks differ: swapped, each consumes the other chunk's
      // message, since the channel still delivers in send order.
      for (int r = 0; r < plan.num_ranks; ++r) {
        std::vector<TraceEvent>& events =
            plan.events.ranks[static_cast<std::size_t>(r)];
        std::map<std::pair<int, std::uint64_t>, std::size_t> first;
        for (std::size_t j = 0; j < events.size(); ++j) {
          if (events[j].kind != TraceEventKind::kRecv) continue;
          const auto [it, fresh] =
              first.try_emplace({events[j].peer, events[j].tag}, j);
          const std::size_t i = it->second;
          if (fresh || events[i].offset == events[j].offset) continue;
          std::ostringstream out;
          out << "rank " << r << " receives view "
              << view_name(view_of_tag(events[i].tag)) << "@"
              << events[j].offset << " before @" << events[i].offset
              << " from rank " << events[i].peer << " under the shared tag "
              << events[i].tag;
          std::swap(events[i], events[j]);
          if (j + 1 < events.size() &&
              events[i + 1].kind == TraceEventKind::kCombine &&
              events[j + 1].kind == TraceEventKind::kCombine) {
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

AnalysisReport verify_schedule(const ScheduleSpec& spec,
                               const CommPlan& plan) {
  CUBIST_CHECK(!spec.sizes.empty() &&
                   spec.sizes.size() == spec.log_splits.size(),
               "sizes/log_splits rank mismatch");
  const ProcGrid grid(spec.log_splits);
  CUBIST_CHECK(plan.num_ranks == grid.size(),
               "plan rank count " << plan.num_ranks
                                  << " does not match the grid ("
                                  << grid.size() << ")");
  CUBIST_CHECK(plan.ranks.size() == static_cast<std::size_t>(plan.num_ranks) &&
                   plan.events.ranks.size() == plan.ranks.size(),
               "plan rank list size mismatch");
  AnalysisReport report;
  check_transport(plan, report);
  check_volume(spec, plan, report);
  check_memory(spec, plan, report);
  check_leads(spec, plan, report);
  return report;
}

AnalysisReport verify_schedule(const ScheduleSpec& spec) {
  return verify_schedule(spec, build_comm_plan(spec));
}

AnalysisReport audit_trace(const ScheduleSpec& spec, const CommPlan& plan,
                           const EventTrace& trace) {
  CUBIST_CHECK(plan.ranks.size() == static_cast<std::size_t>(plan.num_ranks) &&
                   plan.events.ranks.size() == plan.ranks.size(),
               "plan rank list size mismatch");
  AnalysisReport report;
  for (const auto& [view, elements] : elements_by_view(plan)) {
    report.planned_total_elements += elements;
  }
  report.planned_messages = plan.total_messages();
  report.predicted_total_elements =
      total_volume_elements(spec.sizes, spec.log_splits);
  if (trace.ranks.size() != plan.ranks.size()) {
    std::ostringstream msg;
    msg << "the trace records " << trace.ranks.size()
        << " ranks, the plan has " << plan.ranks.size();
    add_violation(report, ViolationCode::kTraceMismatch, kNoRank, kNoView,
                  static_cast<std::int64_t>(plan.ranks.size()),
                  static_cast<std::int64_t>(trace.ranks.size()), msg.str());
    return report;
  }
  // The plan as the run links it: each receive names the send it takes,
  // each combine the receive it folds.
  EventTrace expected = plan.events;
  replay(expected);
  for (int r = 0; r < plan.num_ranks; ++r) {
    const std::vector<TraceEvent>& ops =
        expected.ranks[static_cast<std::size_t>(r)];
    const std::vector<TraceEvent>& events =
        trace.ranks[static_cast<std::size_t>(r)];
    const std::size_t common = std::min(ops.size(), events.size());
    std::size_t i = 0;
    for (; i < common; ++i) {
      const Field d = first_divergence(trace, ops[i], events[i]);
      if (d.name == nullptr) {
        if (check_wire(spec, r, i, events[i], report)) break;
        continue;
      }
      std::ostringstream msg;
      msg << "rank " << r << " event " << i << " differs in its " << d.name
          << ": recorded " << describe(events[i]) << ", planned "
          << describe(ops[i]);
      add_violation(report, ViolationCode::kTraceMismatch, r,
                    view_of_tag(ops[i].tag), d.planned, d.recorded,
                    msg.str());
      break;
    }
    if (i < common || ops.size() == events.size()) continue;
    std::ostringstream msg;
    msg << "rank " << r << " records " << events.size()
        << " events, the plan has " << ops.size() << "; first ";
    if (ops.size() > events.size()) {
      msg << "missing: planned " << describe(ops[common]);
    } else {
      msg << "extra: recorded " << describe(events[common]);
    }
    add_violation(report, ViolationCode::kTraceMismatch, r,
                  ops.size() > events.size() ? view_of_tag(ops[common].tag)
                                             : kNoView,
                  static_cast<std::int64_t>(ops.size()),
                  static_cast<std::int64_t>(events.size()), msg.str());
  }
  return report;
}

}  // namespace cubist
