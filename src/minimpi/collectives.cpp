#include "minimpi/collectives.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "array/shape.h"
#include "common/error.h"

namespace cubist {

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

std::vector<ReduceStep> reduce_chunk_steps(ReduceAlgorithm algorithm,
                                           std::span<const int> group,
                                           int me_index) {
  const int g = static_cast<int>(group.size());
  CUBIST_CHECK(g >= 1, "empty reduction group");
  CUBIST_CHECK(me_index >= 0 && me_index < g, "member index out of group");
  if (g == 1) return {};
  switch (algorithm) {
    case ReduceAlgorithm::kAuto:
      CUBIST_CHECK(false, "kAuto must be resolved before step generation");
      return {};
    case ReduceAlgorithm::kBinomial: {
      // Receives in ascending step order, then (except at the root) one
      // send.
      std::vector<ReduceStep> out;
      for (int step = 1; step < g; step <<= 1) {
        if ((me_index & step) != 0) {
          out.push_back({ReduceStep::Kind::kSend, group[me_index - step]});
          break;
        }
        if (me_index + step < g) {
          out.push_back({ReduceStep::Kind::kRecvCombine,
                         group[me_index + step]});
        }
      }
      return out;
    }
    case ReduceAlgorithm::kRing: {
      // Chain toward group[0]: the tail only sends, interior members
      // fold one operand then forward, the head only folds.
      std::vector<ReduceStep> out;
      if (me_index == g - 1) {
        out.push_back({ReduceStep::Kind::kSend, group[me_index - 1]});
      } else if (me_index > 0) {
        out.push_back({ReduceStep::Kind::kRecvCombine, group[me_index + 1]});
        out.push_back({ReduceStep::Kind::kSend, group[me_index - 1]});
      } else {
        out.push_back({ReduceStep::Kind::kRecvCombine, group[1]});
      }
      return out;
    }
  }
  CUBIST_CHECK(false, "unknown reduce algorithm");
  return {};
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

std::vector<ReduceOp> reduce_program(const ReduceOptions& options,
                                     std::span<const int> group,
                                     int me_index,
                                     std::int64_t total_elements) {
  const std::vector<ReduceStep> steps =
      reduce_chunk_steps(options.algorithm, group, me_index);
  const std::int64_t piece = reduce_chunk_elements(
      options, total_elements, static_cast<int>(group.size()));
  std::vector<ReduceOp> program;
  for (std::int64_t offset = 0; offset < total_elements; offset += piece) {
    const std::int64_t count = std::min(piece, total_elements - offset);
    for (const ReduceStep& step : steps) {
      program.push_back({step, offset, count});
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

  std::vector<std::vector<ReduceOp>> programs(static_cast<std::size_t>(g));
  for (int i = 0; i < g; ++i) {
    programs[static_cast<std::size_t>(i)] =
        reduce_program(options, group, i, total_elements);
  }

  // Deterministic replay: each member runs its program until it blocks on
  // a message still in flight. Channels are FIFO per (src, dst), exactly
  // like the transport, and every charge is the runtime's own.
  std::vector<double> clock(static_cast<std::size_t>(g), 0.0);
  std::vector<std::size_t> pc(static_cast<std::size_t>(g), 0);
  std::map<std::pair<int, int>, std::deque<double>> arrivals;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int i = 0; i < g; ++i) {
      const std::vector<ReduceOp>& program =
          programs[static_cast<std::size_t>(i)];
      double& t = clock[static_cast<std::size_t>(i)];
      std::size_t& next = pc[static_cast<std::size_t>(i)];
      for (; next < program.size(); ++next) {
        const ReduceOp& op = program[next];
        const ReducePayloadEstimate estimate =
            estimate_reduce_payload(op.count, options.encode_wire);
        if (op.step.kind == ReduceStep::Kind::kSend) {
          arrivals[{group[i], op.step.peer}].push_back(
              model.charge_send(t, estimate.wire_bytes));
        } else {
          std::deque<double>& queue = arrivals[{op.step.peer, group[i]}];
          if (queue.empty()) break;  // blocked on an in-flight message
          CostModel::charge_receive(t, queue.front());
          queue.pop_front();
          model.charge_combine(t, estimate.updates);
        }
        progress = true;
      }
    }
  }
  for (int i = 0; i < g; ++i) {
    CUBIST_ASSERT(pc[static_cast<std::size_t>(i)] ==
                      programs[static_cast<std::size_t>(i)].size(),
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
