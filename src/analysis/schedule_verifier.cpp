#include "analysis/schedule_verifier.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <tuple>

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

/// One in-flight message of the transport replay: what the send carried.
struct InFlightMsg {
  std::int64_t elements = 0;
  std::uint32_t view = 0;
  std::int64_t offset = 0;
};

/// Checks a matched (send, recv) pair: payload sizes must agree, and the
/// message must belong to the receive's logical stream (same view and
/// chunk offset — a mismatch means two streams collide on one wire tag).
void check_match(const InFlightMsg& got, const PlannedOp& op, int rank,
                 AnalysisReport& report) {
  if (got.view != op.view || got.offset != op.offset) {
    std::ostringstream msg;
    msg << "rank " << rank << " receives view " << view_name(op.view) << "@"
        << op.offset << " but the matching send from rank " << op.peer
        << " carries view " << view_name(got.view) << "@" << got.offset
        << " under the same wire tag";
    add_violation(report, ViolationCode::kTagCollision, rank, op.view,
                  static_cast<std::int64_t>(op.view),
                  static_cast<std::int64_t>(got.view), msg.str());
    return;
  }
  if (got.elements != op.elements) {
    std::ostringstream msg;
    msg << "rank " << rank << " expects " << op.elements
        << " elements from rank " << op.peer << " for view "
        << view_name(op.view) << " but the matching send carries "
        << got.elements;
    add_violation(report, ViolationCode::kMessageSizeMismatch, rank, op.view,
                  op.elements, got.elements, msg.str());
  }
}

/// Replays the per-rank programs under the runtime's semantics (sends
/// never block; receives block on a FIFO (source, wire-tag) channel;
/// combines are local) and reports unmatched traffic, payload-size
/// disagreements, wire-tag collisions, and — on a stall — the wait-for-
/// graph cycle. The replay follows one canonical interleaving, and that
/// decides every other: a receive can only take the head of its one
/// channel, so each receive matches the same send in every interleaving
/// and a receive that blocks here blocks in all of them.
void check_transport(const CommPlan& plan, AnalysisReport& report) {
  const int p = plan.num_ranks;
  // In-flight messages per (src, dst, wire tag) channel, FIFO.
  std::map<std::tuple<int, int, std::uint64_t>, std::deque<InFlightMsg>>
      in_flight;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);

  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < p; ++r) {
      const std::vector<PlannedOp>& ops =
          plan.ranks[static_cast<std::size_t>(r)].ops;
      while (cursor[static_cast<std::size_t>(r)] < ops.size()) {
        const PlannedOp& op = ops[cursor[static_cast<std::size_t>(r)]];
        if (op.kind == PlannedOp::Kind::kSend) {
          in_flight[{r, op.peer, op.wire_tag()}].push_back(
              {op.elements, op.view, op.offset});
        } else if (op.kind == PlannedOp::Kind::kRecv) {
          auto it = in_flight.find({op.peer, r, op.wire_tag()});
          if (it == in_flight.end() || it->second.empty()) break;  // blocked
          check_match(it->second.front(), op, r, report);
          it->second.pop_front();
        }
        // kCombine is local compute: always executable.
        ++cursor[static_cast<std::size_t>(r)];
        progress = true;
      }
    }
  }

  // Stalled ranks: blocked on a receive no executed send satisfies.
  std::vector<bool> stuck(static_cast<std::size_t>(p), false);
  for (int r = 0; r < p; ++r) {
    stuck[static_cast<std::size_t>(r)] =
        cursor[static_cast<std::size_t>(r)] <
        plan.ranks[static_cast<std::size_t>(r)].ops.size();
  }
  // Wait-for edges among stuck ranks; cycles are deadlocks, the rest are
  // receives whose sender terminated (or is itself a deadlock victim).
  std::vector<int> color(static_cast<std::size_t>(p), 0);  // 0=new 1=path 2=done
  std::vector<bool> on_cycle(static_cast<std::size_t>(p), false);
  for (int start = 0; start < p; ++start) {
    if (!stuck[static_cast<std::size_t>(start)] ||
        color[static_cast<std::size_t>(start)] != 0) {
      continue;
    }
    std::vector<int> path;
    int r = start;
    while (r != kNoRank && stuck[static_cast<std::size_t>(r)] &&
           color[static_cast<std::size_t>(r)] == 0) {
      color[static_cast<std::size_t>(r)] = 1;
      path.push_back(r);
      const RankPlan& rank_plan = plan.ranks[static_cast<std::size_t>(r)];
      r = rank_plan.ops[cursor[static_cast<std::size_t>(r)]].peer;
    }
    if (r != kNoRank && color[static_cast<std::size_t>(r)] == 1) {
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
          const RankPlan& member_plan =
              plan.ranks[static_cast<std::size_t>(member)];
          const PlannedOp& op =
              member_plan.ops[cursor[static_cast<std::size_t>(member)]];
          msg << " rank " << member << " waits on rank " << op.peer
              << " (view " << view_name(op.view) << ");";
        }
      }
      const RankPlan& head_plan =
          plan.ranks[static_cast<std::size_t>(cycle_head)];
      const PlannedOp& head_op =
          head_plan.ops[cursor[static_cast<std::size_t>(cycle_head)]];
      add_violation(report, ViolationCode::kDeadlock, cycle_head, head_op.view,
                    0, 0, msg.str());
    }
    for (int member : path) color[static_cast<std::size_t>(member)] = 2;
  }
  for (int r = 0; r < p; ++r) {
    if (!stuck[static_cast<std::size_t>(r)] ||
        on_cycle[static_cast<std::size_t>(r)]) {
      continue;
    }
    const RankPlan& rank_plan = plan.ranks[static_cast<std::size_t>(r)];
    const PlannedOp& op = rank_plan.ops[cursor[static_cast<std::size_t>(r)]];
    std::ostringstream msg;
    msg << "rank " << r << " blocks forever receiving " << op.elements
        << " elements of view " << view_name(op.view) << " from rank "
        << op.peer;
    add_violation(report, ViolationCode::kUnmatchedRecv, r, op.view,
                  op.elements, 0, msg.str());
  }
  for (const auto& [key, messages] : in_flight) {
    const auto& [src, dst, tag] = key;
    (void)tag;
    for (const InFlightMsg& message : messages) {
      std::ostringstream msg;
      msg << "rank " << src << " sends " << message.elements
          << " elements of view " << view_name(message.view) << " to rank "
          << dst << " but no receive consumes them";
      add_violation(report, ViolationCode::kUnmatchedSend, src, message.view,
                    0, message.elements, msg.str());
    }
  }
}

/// Per-edge volumes against Lemma 1 and the total against Theorem 3.
/// Volumes are recomputed from the planned construction sends (the ground
/// truth) rather than read from the plan's summary map, so mutations to
/// the ops — including test-injected ones — are always caught. The
/// gather's sends (tags from kGatherTagBase up) are result collection,
/// which the closed forms leave out.
void check_volume(const ScheduleSpec& spec, const CommPlan& plan,
                  AnalysisReport& report) {
  const int n = static_cast<int>(spec.sizes.size());
  const std::uint32_t root_mask = DimSet::full(n).mask();
  std::map<std::uint32_t, std::int64_t> planned_by_view;
  for (const RankPlan& rank : plan.ranks) {
    for (const PlannedOp& op : rank.ops) {
      if (op.kind == PlannedOp::Kind::kSend &&
          op.wire_tag() < kGatherTagBase) {
        planned_by_view[op.view] += op.elements;
      }
    }
  }
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

/// One-line rendering of a recorded event.
std::string describe(const TraceEvent& e) {
  std::ostringstream out;
  out << to_string(e.kind) << " peer " << e.peer << " tag " << e.tag << " @"
      << e.offset << " x" << e.units;
  if (e.kind == TraceEventKind::kSend) out << " wire " << e.wire;
  if (e.match_seq != kNoTraceSeq) out << " consumed #" << e.match_seq;
  if (e.operand_seq != kNoTraceSeq) out << " operand #" << e.operand_seq;
  return out.str();
}

/// One field of an event: its name, the planned and the recorded value.
struct Field {
  const char* name = nullptr;
  std::int64_t planned = 0;
  std::int64_t recorded = 0;
};

/// The first field in which recorded event `e` departs from planned `op`
/// (name null when none does). `match` is the send the plan pairs with a
/// receive and `operand` the receive a combine folds (kNoTraceSeq for the
/// other kinds, whose recorded links must be absent too).
Field first_divergence(const EventTrace& trace, const PlannedOp& op,
                       const TraceEvent& e, std::uint64_t match,
                       std::uint64_t operand) {
  const auto seq = [](std::uint64_t index) {
    return index == kNoTraceSeq ? std::int64_t{-1}
                                : static_cast<std::int64_t>(index);
  };
  // A receive records wire bytes: its logical size is that of the send it
  // consumed, by then known to be the planned `match` (a send of the
  // plan, so `op.peer` is a rank of the trace), and the bytes it took
  // must be the bytes that send put on the wire.
  std::int64_t size = e.units;
  std::int64_t sent_wire = 0;
  std::int64_t received_wire = 0;
  if (op.kind == PlannedOp::Kind::kRecv) {
    size = -1;
    if (match != kNoTraceSeq) {
      const std::vector<TraceEvent>& sender =
          trace.ranks[static_cast<std::size_t>(op.peer)];
      if (match < sender.size()) {
        size = sender[match].units;
        sent_wire = sender[match].wire;
        received_wire = e.units;
      }
    }
  }
  const std::int64_t planned_size =
      op.kind == PlannedOp::Kind::kCombine
          ? op.elements
          : op.elements * static_cast<std::int64_t>(sizeof(Value));
  for (const Field& field : {
           Field{"kind", static_cast<std::int64_t>(op.kind),
                 static_cast<std::int64_t>(e.kind)},
           Field{"peer", op.peer, e.peer},
           Field{"wire tag", static_cast<std::int64_t>(op.wire_tag()),
                 static_cast<std::int64_t>(e.tag)},
           Field{"chunk offset", op.offset, e.offset},
           Field{"consumed send", seq(match), seq(e.match_seq)},
           Field{"operand", seq(operand), seq(e.operand_seq)},
           Field{"logical size", planned_size, size},
           Field{"wire size", sent_wire, received_wire},
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
                const PlannedOp& op, const TraceEvent& e,
                AnalysisReport& report) {
  if (e.kind != TraceEventKind::kSend) return false;
  const bool over = e.wire > e.units;
  if (!over && (spec.encode_wire || e.wire == e.units)) return false;
  std::ostringstream msg;
  msg << "rank " << rank << " event " << index << " puts " << e.wire
      << " bytes on the wire for " << e.units << " logical bytes"
      << (over ? "" : " with the codec off") << ": recorded " << describe(e);
  add_violation(report,
                over ? ViolationCode::kWireVolumeExceedsBound
                     : ViolationCode::kTraceMismatch,
                rank, op.view, e.units, e.wire, msg.str());
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
  CUBIST_CHECK(plan.ranks.size() == static_cast<std::size_t>(plan.num_ranks),
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
  CUBIST_CHECK(plan.ranks.size() == static_cast<std::size_t>(plan.num_ranks),
               "plan rank list size mismatch");
  AnalysisReport report;
  report.planned_total_elements = plan.total_elements();
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
  // The planned sends of each (source, destination, wire tag) channel, in
  // order: the channel's k-th receive takes its k-th send.
  std::map<std::tuple<int, int, std::uint64_t>, std::deque<std::uint64_t>>
      channels;
  for (int r = 0; r < plan.num_ranks; ++r) {
    const std::vector<PlannedOp>& ops =
        plan.ranks[static_cast<std::size_t>(r)].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == PlannedOp::Kind::kSend) {
        channels[{r, ops[i].peer, ops[i].wire_tag()}].push_back(i);
      }
    }
  }
  for (int r = 0; r < plan.num_ranks; ++r) {
    const std::vector<PlannedOp>& ops =
        plan.ranks[static_cast<std::size_t>(r)].ops;
    const std::vector<TraceEvent>& events =
        trace.ranks[static_cast<std::size_t>(r)];
    const std::size_t common = std::min(ops.size(), events.size());
    std::uint64_t last_recv = kNoTraceSeq;
    std::size_t i = 0;
    for (; i < common; ++i) {
      std::uint64_t match = kNoTraceSeq;
      std::uint64_t operand = kNoTraceSeq;
      if (ops[i].kind == PlannedOp::Kind::kRecv) {
        std::deque<std::uint64_t>& sends =
            channels[{ops[i].peer, r, ops[i].wire_tag()}];
        if (!sends.empty()) {
          match = sends.front();
          sends.pop_front();
        }
        last_recv = i;
      } else if (ops[i].kind == PlannedOp::Kind::kCombine) {
        operand = last_recv;
      }
      const Field d =
          first_divergence(trace, ops[i], events[i], match, operand);
      if (d.name == nullptr) {
        if (check_wire(spec, r, i, ops[i], events[i], report)) break;
        continue;
      }
      std::ostringstream msg;
      msg << "rank " << r << " event " << i << " differs in its " << d.name
          << ": recorded " << describe(events[i]) << ", planned "
          << to_string(ops[i]);
      add_violation(report, ViolationCode::kTraceMismatch, r, ops[i].view,
                    d.planned, d.recorded, msg.str());
      break;
    }
    if (i < common || ops.size() == events.size()) continue;
    std::ostringstream msg;
    msg << "rank " << r << " records " << events.size()
        << " events, the plan has " << ops.size() << "; first ";
    if (ops.size() > events.size()) {
      msg << "missing: planned " << to_string(ops[common]);
    } else {
      msg << "extra: recorded " << describe(events[common]);
    }
    add_violation(report, ViolationCode::kTraceMismatch, r,
                  ops.size() > events.size() ? ops[common].view : kNoView,
                  static_cast<std::int64_t>(ops.size()),
                  static_cast<std::int64_t>(events.size()), msg.str());
  }
  return report;
}

}  // namespace cubist
