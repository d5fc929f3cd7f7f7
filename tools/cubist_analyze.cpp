// cubist-analyze — schedule certification from the command line.
//
// For a given construction shape (global extents, grid exponents, message
// chunking, reduction algorithm) the tool builds the static communication
// plan and certifies it with the replay verifier: transport safety
// (matched sends and receives, no deadlock, no stream crossing a shared
// wire tag) and the Lemma 1 / Theorem 3 / Theorem 4 closed forms. Every
// receive names its source and sends never block, so the verifier's one
// replay decides every arrival order (docs/ANALYSIS.md). Findings are
// printed and optionally written as JSON for CI artifacts.
//
//   $ cubist-analyze --sizes=4x4x4 --log-splits=1x1x0
//   $ cubist-analyze --figure7 --json=figure7.json
//   $ cubist-analyze --self-test
//   $ cubist-analyze --sizes=4x4x4 --log-splits=2x0x0 --mutate=drop-send
//
// --self-test proves the analyses actually detect the seeded bugs: a
// dropped send and a tag collision are planted in the plan via
// apply_schedule_mutation (the replay verifier must catch both), and a
// dropped send and a cross-tag consumption are planted in a recorded
// trace (the happens-before auditor must catch both). It fails unless
// every plant is caught and both unmutated controls pass.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/comm_plan.h"
#include "analysis/hb_auditor.h"
#include "analysis/schedule_verifier.h"
#include "array/dense_array.h"
#include "common/args.h"
#include "common/error.h"
#include "minimpi/runtime.h"

using namespace cubist;

namespace {

std::vector<std::int64_t> parse_int64s(const std::string& text,
                                       const char* flag) {
  std::vector<std::int64_t> values;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, 'x')) {
    values.push_back(std::stoll(token));
  }
  CUBIST_CHECK(!values.empty(), "could not parse --" << flag);
  return values;
}

std::vector<int> parse_ints(const std::string& text, const char* flag) {
  std::vector<int> values;
  for (std::int64_t v : parse_int64s(text, flag)) {
    values.push_back(static_cast<int>(v));
  }
  return values;
}

ScheduleMutation parse_mutation(const std::string& name) {
  if (name.empty() || name == "none") return ScheduleMutation::kNone;
  if (name == "drop-send") return ScheduleMutation::kDropSend;
  CUBIST_CHECK(name == "tag-collision",
               "unknown --mutate value '"
                   << name << "' (none | drop-send | tag-collision)");
  return ScheduleMutation::kTagCollision;
}

/// One shape to certify.
struct ShapeCase {
  std::string name;
  std::vector<std::int64_t> sizes;
  std::vector<int> log_splits;
  std::int64_t chunk_elements = 0;
  /// Reduction schedule to certify (kAuto = whatever the tuner picks).
  ReduceAlgorithm algorithm = ReduceAlgorithm::kBinomial;
  /// Two-tier topology: consecutive ranks per node (0 = flat). Non-zero
  /// also prices inter-node edges expensively (10x latency, 1/8
  /// bandwidth) so the tuner has a real topology to react to.
  int ranks_per_node = 0;
};

/// Everything the tool learned about one shape.
struct CaseResult {
  ShapeCase shape;
  ScheduleMutation mutation = ScheduleMutation::kNone;
  std::string mutation_note;
  std::int64_t events = 0;
  AnalysisReport report;

  bool ok() const {
    return report.ok() &&
           (mutation == ScheduleMutation::kNone || !mutation_note.empty());
  }
};

CaseResult run_case(const ShapeCase& shape, ScheduleMutation mutation) {
  CaseResult result;
  result.shape = shape;
  result.mutation = mutation;

  ScheduleSpec spec;
  spec.sizes = shape.sizes;
  spec.log_splits = shape.log_splits;
  spec.reduce_message_elements = shape.chunk_elements;
  spec.reduce_algorithm = shape.algorithm;
  if (shape.ranks_per_node > 0) {
    spec.model.topology.ranks_per_node = shape.ranks_per_node;
    spec.model.topology.inter = {spec.model.latency * 10,
                                 spec.model.overhead,
                                 spec.model.bandwidth / 8};
  }
  CommPlan plan = build_comm_plan(spec);
  ScheduleIR ir = plan.ir();
  if (mutation != ScheduleMutation::kNone) {
    result.mutation_note = apply_schedule_mutation(ir, mutation);
    if (result.mutation_note.empty()) {
      std::printf("  (mutation %s not expressible on this shape)\n",
                  to_string(mutation));
    }
    for (int r = 0; r < plan.num_ranks; ++r) {
      plan.ranks[static_cast<std::size_t>(r)].ops =
          ir.ranks[static_cast<std::size_t>(r)].events;
    }
  }
  result.events = ir.total_events();
  result.report = verify_schedule(spec, plan);
  return result;
}

void print_case(const CaseResult& result) {
  std::ostringstream sizes;
  for (std::size_t i = 0; i < result.shape.sizes.size(); ++i) {
    sizes << (i > 0 ? "x" : "") << result.shape.sizes[i];
  }
  std::printf("[%s] sizes=%s chunk=%lld algorithm=%s rpn=%d mutation=%s\n",
              result.shape.name.c_str(), sizes.str().c_str(),
              static_cast<long long>(result.shape.chunk_elements),
              to_string(result.shape.algorithm), result.shape.ranks_per_node,
              to_string(result.mutation));
  if (!result.mutation_note.empty()) {
    std::printf("  seeded: %s\n", result.mutation_note.c_str());
  }
  std::printf("  %lld events; %s\n", static_cast<long long>(result.events),
              result.report.to_string().c_str());
}

std::string case_to_json(const CaseResult& result) {
  std::ostringstream out;
  out << "{\"name\":\"" << json_escape(result.shape.name) << "\",\"sizes\":[";
  for (std::size_t i = 0; i < result.shape.sizes.size(); ++i) {
    out << (i > 0 ? "," : "") << result.shape.sizes[i];
  }
  out << "],\"log_splits\":[";
  for (std::size_t i = 0; i < result.shape.log_splits.size(); ++i) {
    out << (i > 0 ? "," : "") << result.shape.log_splits[i];
  }
  out << "],\"chunk_elements\":" << result.shape.chunk_elements
      << ",\"algorithm\":\"" << to_string(result.shape.algorithm)
      << "\",\"ranks_per_node\":" << result.shape.ranks_per_node
      << ",\"mutation\":\"" << to_string(result.mutation)
      << "\",\"mutation_note\":\"" << json_escape(result.mutation_note)
      << "\",\"events\":" << result.events << ",\"ok\":"
      << (result.ok() ? "true" : "false")
      << ",\"verifier\":" << result.report.to_json() << "}";
  return out.str();
}

/// The Figure-7 shape matrix, scaled down to grids of at most 4
/// processors; each shape runs both unchunked and chunk-pipelined.
std::vector<ShapeCase> figure7_matrix() {
  struct Base {
    const char* name;
    std::vector<std::int64_t> sizes;
    std::vector<int> log_splits;
  };
  const std::vector<Base> bases = {
      {"fig7-3d-p4-d0", {4, 4, 4}, {2, 0, 0}},
      {"fig7-3d-p4-d01", {4, 4, 4}, {1, 1, 0}},
      {"fig7-3d-p4-d02", {4, 4, 4}, {1, 0, 1}},
      {"fig7-3d-p2-skew", {8, 4, 2}, {1, 0, 0}},
      {"fig7-4d-p4", {4, 4, 2, 2}, {1, 1, 0, 0}},
      {"fig7-2d-p4", {16, 4}, {2, 0}},
  };
  std::vector<ShapeCase> cases;
  for (const Base& base : bases) {
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{8}}) {
      ShapeCase shape;
      shape.name = std::string(base.name) + (chunk == 0 ? "" : "-chunked");
      shape.sizes = base.sizes;
      shape.log_splits = base.log_splits;
      shape.chunk_elements = chunk;
      cases.push_back(std::move(shape));
    }
  }
  return cases;
}

bool has_code(const std::vector<Violation>& violations, ViolationCode code) {
  for (const Violation& violation : violations) {
    if (violation.code == code) return true;
  }
  return false;
}

/// Records one reduce over ranks {0..3} and returns the event trace.
EventTrace traced_reduce() {
  const std::vector<int> group = {0, 1, 2, 3};
  const RunReport run = Runtime::run(
      4, CostModel{},
      [&](Comm& comm) {
        DenseArray block(Shape{{8}});
        for (std::int64_t i = 0; i < block.size(); ++i) {
          block[i] = static_cast<Value>(comm.rank() + 1);
        }
        comm.reduce(group, block, /*tag=*/1, AggregateOp::kSum);
        comm.barrier();
      },
      /*record_trace=*/true);
  return run.trace;
}

/// A copy of `trace` whose first receive is changed by `tamper` (an
/// unchanged copy if it has none, which the self-test reports as missed).
EventTrace tamper_first_receive(EventTrace trace,
                                void (*tamper)(TraceEvent&)) {
  for (std::vector<TraceEvent>& rank_events : trace.ranks) {
    for (TraceEvent& event : rank_events) {
      if (event.kind == TraceEventKind::kRecv) {
        tamper(event);
        return trace;
      }
    }
  }
  return trace;
}

int self_test() {
  int failures = 0;
  const auto expect = [&](bool passed, const char* what) {
    std::printf("  %-60s %s\n", what, passed ? "pass" : "FAIL");
    if (!passed) ++failures;
  };

  std::printf("static leg: seeded plan mutations through the replay "
              "verifier\n");
  const ShapeCase plain{"self-test", {4, 4, 4}, {2, 0, 0}, 0};
  const ShapeCase chunked{"self-test-chunked", {4, 4, 4}, {2, 0, 0}, 4};

  expect(run_case(chunked, ScheduleMutation::kNone).ok(),
         "clean plan verifies clean (control)");

  const CaseResult dropped = run_case(plain, ScheduleMutation::kDropSend);
  expect(!dropped.mutation_note.empty() &&
             has_code(dropped.report.violations,
                      ViolationCode::kUnmatchedRecv),
         "drop-send -> receiver blocks forever");

  const CaseResult collision =
      run_case(chunked, ScheduleMutation::kTagCollision);
  expect(!collision.mutation_note.empty() &&
             has_code(collision.report.violations,
                      ViolationCode::kTagCollision),
         "tag-collision -> receive consumes another stream's message");

  std::printf("runtime leg: tampered traces through the happens-before "
              "auditor\n");
  const EventTrace clean = traced_reduce();
  expect(audit_event_trace(clean).ok(), "clean trace audits clean (control)");

  // Dropped send, modelled at the trace level: a receive whose matched
  // send vanished from the wire record.
  const HbAuditReport unmatched = audit_event_trace(tamper_first_receive(
      clean, [](TraceEvent& event) { event.match_seq = kNoTraceSeq; }));
  expect(has_code(unmatched.violations, ViolationCode::kUnmatchedRecv),
         "dropped send in trace -> unmatched receive");

  // Tag collision, modelled at the trace level: a receive that consumed a
  // message recorded under a different wire tag.
  const HbAuditReport crossed = audit_event_trace(tamper_first_receive(
      clean, [](TraceEvent& event) { event.tag += 1; }));
  expect(has_code(crossed.violations, ViolationCode::kTagCollision),
         "tag collision in trace -> cross-stream consumption");

  std::printf(failures == 0 ? "self-test OK\n"
                            : "self-test FAILED (%d missed)\n",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("cubist-analyze",
                 "certify a parallel cube schedule with the replay verifier");
  const auto* sizes_text =
      args.add_string("sizes", "4x4x4", "global extents, e.g. 4x4x4");
  const auto* splits_text = args.add_string(
      "log-splits", "1x1x0", "grid exponents per dimension, e.g. 1x1x0");
  const auto* chunk = args.add_int(
      "chunk-elements", 0, "reduction message cap in elements (0 = whole block)");
  const auto* algorithm_text = args.add_string(
      "algorithm", "binomial",
      "reduction schedule to certify: binomial | ring | two-level | auto");
  const auto* ranks_per_node = args.add_int(
      "ranks-per-node", 0,
      "two-tier topology: consecutive ranks per node (0 = flat)");
  const auto* mutate_text = args.add_string(
      "mutate", "none", "seed a bug first: drop-send | tag-collision");
  const auto* json_path =
      args.add_string("json", "", "write the machine-readable report here");
  const auto* figure7 = args.add_bool(
      "figure7", false, "certify the scaled Figure-7 shape matrix");
  const auto* run_self_test = args.add_bool(
      "self-test", false,
      "prove the verifier and auditor detect the seeded bugs");
  if (!args.parse(argc, argv)) return 1;

  if (*run_self_test) {
    return self_test();
  }

  ReduceAlgorithm algorithm = ReduceAlgorithm::kBinomial;
  CUBIST_CHECK(parse_reduce_algorithm(*algorithm_text, &algorithm),
               "unknown --algorithm value '"
                   << *algorithm_text
                   << "' (binomial | ring | two-level | auto)");
  CUBIST_CHECK(*ranks_per_node >= 0, "negative --ranks-per-node");

  std::vector<ShapeCase> cases;
  if (*figure7) {
    cases = figure7_matrix();
  } else {
    ShapeCase shape;
    shape.name = "cli";
    shape.sizes = parse_int64s(*sizes_text, "sizes");
    shape.log_splits = parse_ints(*splits_text, "log-splits");
    shape.chunk_elements = *chunk;
    CUBIST_CHECK(shape.sizes.size() == shape.log_splits.size(),
                 "--sizes and --log-splits must have equal length");
    cases.push_back(std::move(shape));
  }
  for (ShapeCase& shape : cases) {
    shape.algorithm = algorithm;
    shape.ranks_per_node = static_cast<int>(*ranks_per_node);
  }
  const ScheduleMutation mutation = parse_mutation(*mutate_text);

  bool all_ok = true;
  std::ostringstream json;
  json << "{\"tool\":\"cubist-analyze\",\"results\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult result = run_case(cases[i], mutation);
    print_case(result);
    all_ok = all_ok && result.ok();
    json << (i > 0 ? "," : "") << case_to_json(result);
  }
  json << "],\"ok\":" << (all_ok ? "true" : "false") << "}";

  if (!json_path->empty()) {
    std::ofstream out(*json_path);
    CUBIST_CHECK(out.good(), "cannot write --json file " << *json_path);
    out << json.str() << "\n";
    std::printf("wrote %s\n", json_path->c_str());
  }
  std::printf("%s\n", all_ok ? "ALL SHAPES CERTIFIED" : "VIOLATIONS FOUND");
  return all_ok ? 0 : 1;
}
