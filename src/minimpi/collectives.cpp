#include "minimpi/collectives.h"

#include <algorithm>
#include <numeric>

#include "array/shape.h"
#include "common/error.h"

namespace cubist {
namespace {

constexpr auto kValueBytes = static_cast<std::int64_t>(sizeof(Value));

}  // namespace

const char* to_string(ReduceAlgorithm algorithm) {
  switch (algorithm) {
    case ReduceAlgorithm::kAuto: return "auto";
    case ReduceAlgorithm::kBinomial: return "binomial";
    case ReduceAlgorithm::kRing: return "ring";
  }
  return "?";
}

bool parse_reduce_algorithm(std::string_view name, ReduceAlgorithm* out) {
  CUBIST_CHECK(out != nullptr, "null output");
  if (name == "auto") *out = ReduceAlgorithm::kAuto;
  else if (name == "binomial") *out = ReduceAlgorithm::kBinomial;
  else if (name == "ring") *out = ReduceAlgorithm::kRing;
  else return false;
  return true;
}

std::int64_t reduce_chunk_elements(const ReduceOptions& options,
                                   std::int64_t total_elements,
                                   int group_size) {
  CUBIST_CHECK(total_elements >= 0, "negative block size");
  CUBIST_CHECK(options.max_message_elements >= 0, "negative message cap");
  if (options.max_message_elements != 0) return options.max_message_elements;
  if (options.algorithm == ReduceAlgorithm::kRing && group_size > 1) {
    const std::int64_t pieces =
        kRingPipelineFactor * (static_cast<std::int64_t>(group_size) - 1);
    return std::max<std::int64_t>(1,
                                  (total_elements + pieces - 1) / pieces);
  }
  return total_elements == 0 ? 1 : total_elements;
}

std::vector<TraceEvent> reduce_program(const ReduceOptions& options,
                                       std::span<const int> group,
                                       int me_index,
                                       std::int64_t total_elements,
                                       std::uint64_t tag) {
  const int g = static_cast<int>(group.size());
  CUBIST_CHECK(g >= 1, "empty reduction group");
  CUBIST_CHECK(me_index >= 0 && me_index < g, "member index out of group");
  // One chunk's schedule: the members this one folds, in order, and the
  // one it forwards to (none at group[0]).
  std::vector<int> sources;
  int destination = -1;
  switch (options.algorithm) {
    case ReduceAlgorithm::kAuto:
      CUBIST_CHECK(false, "kAuto must be resolved before program generation");
      break;
    case ReduceAlgorithm::kBinomial:
      // Receives in ascending step order, then (except at the root) one
      // send.
      for (int step = 1; step < g; step <<= 1) {
        if ((me_index & step) != 0) {
          destination = group[me_index - step];
          break;
        }
        if (me_index + step < g) sources.push_back(group[me_index + step]);
      }
      break;
    case ReduceAlgorithm::kRing:
      // Chain toward group[0]: the tail only sends, interior members
      // fold one operand then forward, the head only folds.
      if (me_index + 1 < g) sources.push_back(group[me_index + 1]);
      if (me_index > 0) destination = group[me_index - 1];
      break;
  }
  const std::int64_t piece = reduce_chunk_elements(options, total_elements, g);
  std::vector<TraceEvent> program;
  for (std::int64_t offset = 0; offset < total_elements; offset += piece) {
    const std::int64_t count = std::min(piece, total_elements - offset);
    for (const int source : sources) {
      program.push_back(
          {TraceEventKind::kRecv, source, tag, count * kValueBytes, offset});
      program.push_back(
          {TraceEventKind::kCombine, source, tag, count, offset});
    }
    if (destination >= 0) {
      program.push_back({TraceEventKind::kSend, destination, tag,
                         count * kValueBytes, offset});
    }
  }
  return program;
}

ReducePayloadEstimate estimate_reduce_payload(std::int64_t elements,
                                              bool encode_wire) {
  const auto count = static_cast<double>(elements);
  return {count * static_cast<double>(sizeof(Value)) *
              (encode_wire ? 0.5 : 1.0),
          count};
}

double simulate_reduce_seconds(const ReduceOptions& options,
                               std::span<const int> group,
                               std::int64_t total_elements,
                               const CostModel& model) {
  const int g = static_cast<int>(group.size());
  if (g < 2 || total_elements == 0) return 0.0;

  // One flat link prices every edge, so a member's program costs the same
  // whatever ranks the group holds: replay the members as ranks 0..g-1.
  std::vector<int> members(static_cast<std::size_t>(g));
  std::iota(members.begin(), members.end(), 0);
  // Each member's clock, and each send's arrival time, charged as the
  // runtime charges them.
  EventTrace programs;
  std::vector<std::vector<double>> arrival;
  for (int i = 0; i < g; ++i) {
    programs.ranks.push_back(
        reduce_program(options, members, i, total_elements, /*tag=*/0));
    arrival.emplace_back(programs.ranks.back().size());
  }
  std::vector<double> clock(static_cast<std::size_t>(g), 0.0);
  const std::vector<std::size_t> stopped_at = replay(
      programs, [&](int rank, std::size_t index, const TraceEvent& event) {
        double& t = clock[static_cast<std::size_t>(rank)];
        switch (event.kind) {
          case TraceEventKind::kSend:
            arrival[static_cast<std::size_t>(rank)][index] = model.charge_send(
                t, estimate_reduce_payload(event.units / kValueBytes,
                                           options.encode_wire)
                       .wire_bytes);
            break;
          case TraceEventKind::kRecv:
            CostModel::charge_receive(
                t, arrival[static_cast<std::size_t>(event.peer)]
                          [event.match_seq]);
            break;
          case TraceEventKind::kCombine:
            model.charge_combine(
                t, estimate_reduce_payload(event.units, options.encode_wire)
                       .updates);
            break;
        }
      });
  for (int i = 0; i < g; ++i) {
    CUBIST_ASSERT(stopped_at[static_cast<std::size_t>(i)] ==
                      programs.ranks[static_cast<std::size_t>(i)].size(),
                  "reduce schedule simulation deadlocked");
  }
  return *std::max_element(clock.begin(), clock.end());
}

ReduceAlgorithm choose_reduce_algorithm(const ReduceOptions& options,
                                        std::span<const int> group,
                                        std::int64_t total_elements,
                                        const CostModel& model) {
  if (group.size() < 3 || total_elements == 0) {
    return ReduceAlgorithm::kBinomial;
  }
  ReduceOptions forced = options;
  forced.algorithm = ReduceAlgorithm::kBinomial;
  const double binomial_seconds =
      simulate_reduce_seconds(forced, group, total_elements, model);
  forced.algorithm = ReduceAlgorithm::kRing;
  const double ring_seconds =
      simulate_reduce_seconds(forced, group, total_elements, model);
  return ring_seconds < binomial_seconds * kTunerSwitchMargin
             ? ReduceAlgorithm::kRing
             : ReduceAlgorithm::kBinomial;
}

ReduceAlgorithm resolve_reduce_algorithm(const ReduceOptions& options,
                                         std::span<const int> group,
                                         std::int64_t total_elements,
                                         const CostModel& model) {
  if (options.algorithm != ReduceAlgorithm::kAuto) return options.algorithm;
  return choose_reduce_algorithm(options, group, total_elements, model);
}

}  // namespace cubist
