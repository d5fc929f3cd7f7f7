#include "minimpi/comm.h"

#include <cstring>

#include "array/wire_codec.h"
#include "common/error.h"
#include "minimpi/runtime_state.h"
#include "obs/drift.h"
#include "obs/trace.h"

namespace cubist {
namespace {

/// Position of `rank` within `group`, -1 when absent. Hoisted out of the
/// collectives' round loops — one scan per call, not one per round.
int index_in_group(std::span<const int> group, int rank) {
  for (int i = 0; i < static_cast<int>(group.size()); ++i) {
    if (group[i] == rank) return i;
  }
  return -1;
}

/// The process-wide reduce drift gauge, looked up once; every member of
/// every reduce records into it (DriftGauge::record is thread-safe).
obs::DriftGauge& reduce_drift_gauge() {
  static obs::DriftGauge& gauge = obs::reduce_clock_vs_sim_gauge();
  return gauge;
}

}  // namespace

Comm::Comm(RuntimeState& state, int rank) : state_(state), rank_(rank) {}

int Comm::size() const { return state_.size(); }

const CostModel& Comm::model() const { return state_.model(); }

void Comm::charge_compute(std::int64_t cells_scanned, std::int64_t updates) {
  clock_ += state_.model().seconds_for_scan(static_cast<double>(cells_scanned));
  clock_ += state_.model().seconds_for_updates(static_cast<double>(updates));
}

std::uint64_t Comm::trace(const TraceEvent& event) {
  if (obs::Tracer::enabled()) {
    obs::Instant("comm", to_string(event.kind))
        .tag("peer", static_cast<std::int64_t>(event.peer))
        .tag("tag", static_cast<std::int64_t>(event.tag))
        .tag("units", event.units);
  }
  return state_.record_event(rank_, event);
}

void Comm::send_wire(int dst, std::uint64_t tag, std::int64_t logical_bytes,
                     std::int64_t offset, std::vector<std::byte> payload) {
  CUBIST_CHECK(dst >= 0 && dst < size(), "bad destination rank " << dst);
  CUBIST_CHECK(dst != rank_, "self-send is not supported");
  const auto wire_bytes = static_cast<std::int64_t>(payload.size());
  // Charged at what actually hits the link (the wire bytes).
  Message message;
  message.payload = std::move(payload);
  message.arrival_time =
      state_.model().charge_send(clock_, static_cast<double>(wire_bytes));
  message.logical_bytes = logical_bytes;
  message.offset = offset;
  TraceEvent event{TraceEventKind::kSend, dst, tag, logical_bytes, offset,
                   wire_bytes};
  message.trace_seq = trace(event);
  state_.transport().deliver(dst, rank_, tag, std::move(message));
}

void Comm::send_bytes(int dst, std::uint64_t tag,
                      std::span<const std::byte> data) {
  send_wire(dst, tag, static_cast<std::int64_t>(data.size()), /*offset=*/0,
            std::vector<std::byte>(data.begin(), data.end()));
}

std::vector<std::byte> Comm::recv_bytes(int src, std::uint64_t tag) {
  CUBIST_CHECK(src >= 0 && src < size(), "bad source rank " << src);
  CUBIST_CHECK(src != rank_, "self-receive is not supported");
  Message message = state_.transport().receive(rank_, src, tag);
  CostModel::charge_receive(clock_, message.arrival_time);
  TraceEvent event{TraceEventKind::kRecv, src, tag, message.logical_bytes,
                   message.offset,
                   static_cast<std::int64_t>(message.payload.size()),
                   message.trace_seq};
  last_recv_seq_ = trace(event);
  return std::move(message.payload);
}

void Comm::send_values(int dst, std::uint64_t tag,
                       std::span<const Value> data) {
  send_bytes(dst, tag, std::as_bytes(data));
}

std::vector<Value> Comm::recv_values(int src, std::uint64_t tag) {
  const std::vector<std::byte> raw = recv_bytes(src, tag);
  CUBIST_ASSERT(raw.size() % sizeof(Value) == 0, "payload not Value-aligned");
  std::vector<Value> values(raw.size() / sizeof(Value));
  std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

void Comm::reduce(std::span<const int> group, DenseArray& data,
                  std::uint64_t tag, AggregateOp op,
                  const ReduceOptions& options, ThreadPool* combine_pool) {
  const int g = static_cast<int>(group.size());
  CUBIST_CHECK(g >= 1, "empty reduction group");
  CUBIST_CHECK(options.max_message_elements >= 0, "negative message cap");
  const int me = index_in_group(group, rank_);
  CUBIST_CHECK(me >= 0, "rank " << rank_ << " not in reduction group");

  const std::int64_t total = data.size();
  // Zero-size blocks (and singleton groups) never touch the wire.
  if (total == 0 || g == 1) return;
  const CostModel& model = state_.model();
  // The schedule resolves (kAuto through the cost tuner) on static inputs
  // only, so analysis/comm_plan.cpp resolves to the identical choice.
  ReduceOptions resolved = options;
  resolved.algorithm = resolve_reduce_algorithm(options, group, total, model);

  // Timeline span for the whole collective.
  obs::Span span("comm", "reduce");
  const double clock_at_entry = clock_;
  if (span.active()) {
    span.tag("algorithm", to_string(resolved.algorithm))
        .tag("elements", total)
        .tag("group", static_cast<std::int64_t>(g))
        .tag("root", static_cast<std::int64_t>(group[0]));
  }

  // The reduce drift gauge's sample: this member's own send and combine
  // charges on the payloads it ships and folds (observed), and the same
  // charges on the tuner's estimates of those payloads (model). Waits
  // enter neither side, so rank skew cannot move the ratio; the live
  // clock is charged as it always is.
  double observed = 0.0;
  double modeled = 0.0;
  // Per destination cell the combine order is the program's fixed step
  // order, identical for every chunk size — the chunking is invisible in
  // the output bits.
  constexpr auto kValueBytes = static_cast<std::int64_t>(sizeof(Value));
  std::vector<std::byte> operand;  // the latest receive's payload
  for (const TraceEvent& next :
       reduce_program(resolved, group, me, total, tag)) {
    switch (next.kind) {
      case TraceEventKind::kSend: {
        const std::int64_t count = next.units / kValueBytes;
        std::vector<std::byte> payload = encode_chunk(
            std::span<const Value>(data.data() + next.offset,
                                   static_cast<std::size_t>(count)),
            op, options.encode_wire);
        model.charge_send(observed, static_cast<double>(payload.size()));
        model.charge_send(
            modeled,
            estimate_reduce_payload(count, options.encode_wire).wire_bytes);
        send_wire(next.peer, tag, next.units, next.offset, std::move(payload));
        break;
      }
      case TraceEventKind::kRecv:
        operand = recv_bytes(next.peer, tag);
        break;
      case TraceEventKind::kCombine: {
        // The operand is released once folded, before the next send.
        const std::vector<std::byte> payload = std::move(operand);
        const std::int64_t updates = combine_chunk(
            op,
            std::span<Value>(data.data() + next.offset,
                             static_cast<std::size_t>(next.units)),
            payload, combine_pool);
        TraceEvent combined = next;
        combined.operand_seq = last_recv_seq_;
        trace(combined);
        // One update per combined element (run-skipped identity cells
        // cost nothing).
        model.charge_combine(clock_, static_cast<double>(updates));
        model.charge_combine(observed, static_cast<double>(updates));
        model.charge_combine(
            modeled,
            estimate_reduce_payload(next.units, options.encode_wire).updates);
        break;
      }
    }
  }
  reduce_drift_gauge().record(observed, modeled);
  if (span.active()) span.tag("clock_delta_seconds", clock_ - clock_at_entry);
}

}  // namespace cubist
