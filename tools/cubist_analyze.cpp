// cubist-analyze — schedule certification from the command line.
//
// For a given construction shape (global extents, grid exponents, message
// chunking, reduction algorithm) the tool builds the static communication
// plan of the whole program — construction and the result gather onto
// rank 0 — and certifies it with the replay verifier: transport safety
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
// apply_schedule_mutation (the replay verifier must catch both), and seven
// tamperings are planted in the trace of one small recorded build (the
// post-run audit must find each departure from the build's certified
// plan, among them a receive that records more logical bytes, or took
// more wire bytes, than its send shipped, and a send that puts more bytes
// on the wire than its logical size). It fails unless every plant is
// caught and both unmutated controls pass.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/schedule_verifier.h"
#include "common/args.h"
#include "common/error.h"
#include "core/parallel_driver.h"
#include "io/generators.h"

using namespace cubist;

namespace {

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
  spec.collect_result = true;
  spec.reduce.max_message_elements = shape.chunk_elements;
  spec.reduce.algorithm = shape.algorithm;
  CommPlan plan = build_comm_plan(spec);
  if (mutation != ScheduleMutation::kNone) {
    result.mutation_note = apply_schedule_mutation(plan, mutation);
    if (result.mutation_note.empty()) {
      std::printf("  (mutation %s not expressible on this shape)\n",
                  to_string(mutation));
    }
  }
  result.events = plan.events.total_events();
  result.report = verify_schedule(spec, plan);
  return result;
}

void print_case(const CaseResult& result) {
  std::ostringstream sizes;
  for (std::size_t i = 0; i < result.shape.sizes.size(); ++i) {
    sizes << (i > 0 ? "x" : "") << result.shape.sizes[i];
  }
  std::printf("[%s] sizes=%s chunk=%lld algorithm=%s mutation=%s\n",
              result.shape.name.c_str(), sizes.str().c_str(),
              static_cast<long long>(result.shape.chunk_elements),
              to_string(result.shape.algorithm), to_string(result.mutation));
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
      << "\",\"mutation\":\"" << to_string(result.mutation)
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

/// One small gathered, chunk-pipelined build recorded with the audit on,
/// and the plan it was certified against.
struct RecordedBuild {
  ScheduleSpec spec;
  CommPlan plan;
  EventTrace trace;
};

RecordedBuild record_build() {
  SparseSpec input;
  input.sizes = {4, 4, 4};
  input.density = 0.5;
  input.seed = 3;
  const std::vector<int> log_splits = {1, 1, 0};
  ParallelOptions options;
  options.reduce.algorithm = ReduceAlgorithm::kBinomial;
  options.reduce.max_message_elements = 2;
  options.audit = true;
  RecordedBuild out;
  out.spec = schedule_spec_of(input.sizes, log_splits, CostModel{},
                              /*collect_result=*/true, options);
  out.plan = build_comm_plan(out.spec);
  out.trace = run_parallel_cube(
                  input.sizes, log_splits, CostModel{},
                  [&](int, const BlockRange& block) {
                    return generate_sparse_block(input, block);
                  },
                  /*collect_result=*/true, options)
                  .run.trace;
  return out;
}

/// The first event of `kind` in `trace`, lowest rank first (nullptr if
/// there is none, which the self-test then reports as a missed plant).
TraceEvent* first_event(EventTrace& trace, TraceEventKind kind) {
  for (std::vector<TraceEvent>& events : trace.ranks) {
    for (TraceEvent& event : events) {
      if (event.kind == kind) return &event;
    }
  }
  return nullptr;
}

/// Swaps the offsets of the first two sends of one stream that carry
/// different chunks; false if the trace has none.
bool swap_send_offsets(EventTrace& trace) {
  for (std::vector<TraceEvent>& events : trace.ranks) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        TraceEvent& a = events[i];
        TraceEvent& b = events[j];
        if (a.kind == TraceEventKind::kSend &&
            b.kind == TraceEventKind::kSend && a.peer == b.peer &&
            a.tag == b.tag && a.offset != b.offset) {
          std::swap(a.offset, b.offset);
          return true;
        }
      }
    }
  }
  return false;
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

  std::printf("runtime leg: tampered traces of a recorded build against "
              "its certified plan\n");
  const RecordedBuild build = record_build();
  const auto caught = [&](const EventTrace& trace) {
    return has_code(audit_trace(build.spec, build.plan, trace).violations,
                    ViolationCode::kTraceMismatch);
  };
  expect(audit_trace(build.spec, build.plan, build.trace).ok(),
         "clean trace equals its plan (control)");

  EventTrace vanished = build.trace;
  TraceEvent* recv = first_event(vanished, TraceEventKind::kRecv);
  if (recv != nullptr) recv->match_seq = kNoTraceSeq;
  expect(recv != nullptr && caught(vanished),
         "receive whose matched send vanished -> reported");

  EventTrace retagged = build.trace;
  recv = first_event(retagged, TraceEventKind::kRecv);
  if (recv != nullptr) recv->tag += 1;
  expect(recv != nullptr && caught(retagged),
         "receive retagged to another stream -> reported");

  EventTrace swapped = build.trace;
  expect(swap_send_offsets(swapped) && caught(swapped),
         "send whose chunk offset is swapped -> reported");

  EventTrace truncated = build.trace;
  const bool gathered = !truncated.ranks[0].empty() &&
                        truncated.ranks[0].back().tag >= kGatherTagBase;
  if (gathered) truncated.ranks[0].pop_back();
  expect(gathered && caught(truncated),
         "rank 0's last gather receive dropped -> reported");

  EventTrace inflated = build.trace;
  recv = first_event(inflated, TraceEventKind::kRecv);
  if (recv != nullptr) recv->units += 1000;
  expect(recv != nullptr && caught(inflated),
         "receive recording more logical bytes than sent -> reported");

  EventTrace oversized = build.trace;
  recv = first_event(oversized, TraceEventKind::kRecv);
  if (recv != nullptr) recv->wire += 1000;
  expect(recv != nullptr && caught(oversized),
         "receive taking more wire bytes than were sent -> reported");

  EventTrace overrun = build.trace;
  TraceEvent* send = first_event(overrun, TraceEventKind::kSend);
  if (send != nullptr) send->wire = send->units + 1;
  expect(send != nullptr &&
             has_code(audit_trace(build.spec, build.plan, overrun).violations,
                      ViolationCode::kWireVolumeExceedsBound),
         "send with more wire bytes than logical bytes -> reported");

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
      "reduction schedule to certify: binomial | ring | auto");
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

  // Malformed input (a bad --sizes token, an unknown --algorithm, a grid
  // the verifier rejects) ends the run with a one-line error.
  try {
    if (*run_self_test) {
      return self_test();
    }

    ReduceAlgorithm algorithm = ReduceAlgorithm::kBinomial;
    CUBIST_CHECK(parse_reduce_algorithm(*algorithm_text, &algorithm),
                 "unknown --algorithm value '"
                     << *algorithm_text
                     << "' (binomial | ring | auto)");

    std::vector<ShapeCase> cases;
    if (*figure7) {
      cases = figure7_matrix();
    } else {
      ShapeCase shape;
      shape.name = "cli";
      shape.sizes = parse_x_list(*sizes_text, "sizes");
      shape.log_splits = parse_x_int_list(*splits_text, "log-splits");
      shape.chunk_elements = *chunk;
      CUBIST_CHECK(shape.sizes.size() == shape.log_splits.size(),
                   "--sizes and --log-splits must have equal length");
      cases.push_back(std::move(shape));
    }
    for (ShapeCase& shape : cases) shape.algorithm = algorithm;
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
  } catch (const InvalidArgument& error) {
    // Bad input: the check's own message, without its source location.
    std::fprintf(stderr, "error: %s\n", std::string(error.message()).c_str());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
