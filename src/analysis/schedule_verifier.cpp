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
/// Volumes are recomputed from the planned send operations (the ground
/// truth) rather than read from the plan's summary map, so mutations to
/// the ops — including test-injected ones — are always caught.
void check_volume(const ScheduleSpec& spec, const CommPlan& plan,
                  AnalysisReport& report) {
  const int n = static_cast<int>(spec.sizes.size());
  const std::uint32_t root_mask = DimSet::full(n).mask();
  std::map<std::uint32_t, std::int64_t> planned_by_view;
  for (const RankPlan& rank : plan.ranks) {
    for (const PlannedOp& op : rank.ops) {
      if (op.kind == PlannedOp::Kind::kSend) {
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
          predicted * spec.bytes_per_cell;
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
      parallel_memory_bound(lattice, spec.log_splits, spec.bytes_per_cell);
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
          << " transient scan-scratch bytes, above the stripe-policy "
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

}  // namespace

std::string json_escape(const std::string& text) {
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
          out << ' ';
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
    case ViolationCode::kLedgerVolumeMismatch:
      return "ledger_volume_mismatch";
    case ViolationCode::kWireVolumeExceedsBound:
      return "wire_volume_exceeds_bound";
    case ViolationCode::kUnknownViewTag:
      return "unknown_view_tag";
    case ViolationCode::kTagCollision:
      return "tag_collision";
    case ViolationCode::kMalformedTrace:
      return "malformed_trace";
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

AnalysisReport audit_measured_volume(
    const ScheduleSpec& spec,
    const std::map<std::uint32_t, std::int64_t>& measured_bytes_by_view) {
  const CommPlan plan = build_comm_plan(spec);
  AnalysisReport report;
  report.planned_total_elements = plan.total_elements();
  report.planned_messages = plan.total_messages();
  report.predicted_total_elements =
      total_volume_elements(spec.sizes, spec.log_splits);
  const int n = static_cast<int>(spec.sizes.size());
  const std::uint32_t root_mask = DimSet::full(n).mask();
  for (std::uint32_t mask = 0; mask < root_mask; ++mask) {
    const auto planned_it = plan.elements_by_view.find(mask);
    const std::int64_t planned_bytes =
        (planned_it == plan.elements_by_view.end() ? std::int64_t{0}
                                                   : planned_it->second) *
        spec.bytes_per_cell;
    const auto measured_it = measured_bytes_by_view.find(mask);
    const std::int64_t measured_bytes =
        measured_it == measured_bytes_by_view.end() ? std::int64_t{0}
                                                    : measured_it->second;
    if (planned_bytes != measured_bytes) {
      std::ostringstream msg;
      msg << "view " << view_name(mask) << ": ledger measured "
          << measured_bytes << " bytes, static plan predicts "
          << planned_bytes;
      add_violation(report, ViolationCode::kLedgerVolumeMismatch, kNoRank,
                    mask, planned_bytes, measured_bytes, msg.str());
    }
  }
  for (const auto& [mask, bytes] : measured_bytes_by_view) {
    if (mask >= root_mask && bytes != 0) {
      std::ostringstream msg;
      msg << "ledger recorded " << bytes << " bytes under tag " << mask
          << " which is not a proper lattice view";
      add_violation(report, ViolationCode::kUnknownViewTag, kNoRank, mask, 0,
                    bytes, msg.str());
    }
  }
  return report;
}

AnalysisReport audit_wire_volume(
    const ScheduleSpec& spec,
    const std::map<std::uint32_t, std::int64_t>& measured_wire_bytes_by_view,
    bool require_equal) {
  const CommPlan plan = build_comm_plan(spec);
  AnalysisReport report;
  report.planned_total_elements = plan.total_elements();
  report.planned_messages = plan.total_messages();
  report.predicted_total_elements =
      total_volume_elements(spec.sizes, spec.log_splits);
  const int n = static_cast<int>(spec.sizes.size());
  const std::uint32_t root_mask = DimSet::full(n).mask();
  for (std::uint32_t mask = 0; mask < root_mask; ++mask) {
    // The per-edge bound is the planned (dense, logical) volume; the
    // volume check proves it equals Lemma 1's closed form.
    const auto planned_it = plan.elements_by_view.find(mask);
    const std::int64_t bound_bytes =
        (planned_it == plan.elements_by_view.end() ? std::int64_t{0}
                                                   : planned_it->second) *
        spec.bytes_per_cell;
    if (bound_bytes > 0) {
      report.dense_bound_bytes_by_view[mask] = bound_bytes;
    }
    const auto measured_it = measured_wire_bytes_by_view.find(mask);
    const std::int64_t wire_bytes =
        measured_it == measured_wire_bytes_by_view.end() ? std::int64_t{0}
                                                         : measured_it->second;
    if (wire_bytes > bound_bytes) {
      std::ostringstream msg;
      msg << "view " << view_name(mask) << ": measured " << wire_bytes
          << " wire bytes, above the dense Lemma 1 bound of " << bound_bytes;
      add_violation(report, ViolationCode::kWireVolumeExceedsBound, kNoRank,
                    mask, bound_bytes, wire_bytes, msg.str());
    } else if (require_equal && wire_bytes != bound_bytes) {
      std::ostringstream msg;
      msg << "view " << view_name(mask) << ": measured " << wire_bytes
          << " wire bytes with encoding disabled, expected exactly the "
             "dense volume of "
          << bound_bytes;
      add_violation(report, ViolationCode::kLedgerVolumeMismatch, kNoRank,
                    mask, bound_bytes, wire_bytes, msg.str());
    }
  }
  for (const auto& [mask, bytes] : measured_wire_bytes_by_view) {
    if (mask >= root_mask && bytes != 0) {
      std::ostringstream msg;
      msg << "ledger recorded " << bytes << " wire bytes under tag " << mask
          << " which is not a proper lattice view";
      add_violation(report, ViolationCode::kUnknownViewTag, kNoRank, mask, 0,
                    bytes, msg.str());
    }
  }
  return report;
}

}  // namespace cubist
