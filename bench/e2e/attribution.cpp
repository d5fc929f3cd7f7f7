#include "attribution.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <vector>

namespace cubist::bench {
namespace {

struct Node {
  const obs::TraceRecord* record = nullptr;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t self = 0;
  std::vector<std::size_t> children;  // indices into the same track
};

/// One thread's spans with their nesting. Spans on one thread come from
/// RAII scopes, so they nest properly and children never overlap.
struct Track {
  std::vector<Node> nodes;
};

bool is(const Node& node, std::string_view category, std::string_view name) {
  return category == node.record->category && name == node.record->name;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double duration_s(const Node& node) { return seconds(node.end - node.start); }

Track build_track(const obs::ThreadCapture& thread) {
  Track track;
  for (const obs::TraceRecord& record : thread.records) {
    if (record.instant) continue;
    track.nodes.push_back(Node{&record, record.start_ns,
                               record.start_ns + record.duration_ns,
                               record.duration_ns, {}});
  }
  // Parents first: earlier start, and the longer span on a tie.
  std::stable_sort(track.nodes.begin(), track.nodes.end(),
                   [](const Node& a, const Node& b) {
                     return a.start != b.start ? a.start < b.start
                                               : a.end > b.end;
                   });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < track.nodes.size(); ++i) {
    Node& node = track.nodes[i];
    while (!open.empty() && track.nodes[open.back()].end < node.end) {
      open.pop_back();
    }
    if (!open.empty()) {
      Node& parent = track.nodes[open.back()];
      parent.children.push_back(i);
      const std::uint64_t covered = node.end - node.start;
      parent.self -= std::min(parent.self, covered);
    }
    open.push_back(i);
  }
  return track;
}

/// Adds the self time of every span under `index` (itself included) to
/// the bucket `classify` picks for it; nullptr means unattributed.
template <typename Classify>
void walk(const Track& track, std::size_t index, const Classify& classify,
          double& unattributed) {
  const Node& node = track.nodes[index];
  double* bucket = classify(node);
  (bucket != nullptr ? *bucket : unattributed) += seconds(node.self);
  for (std::size_t child : node.children) {
    walk(track, child, classify, unattributed);
  }
}

struct RankSpan {
  const Track* track = nullptr;
  std::size_t index = 0;
  const Node& node() const { return track->nodes[index]; }
};

void attribute_parallel_run(const Node& run,
                            const std::vector<RankSpan>& ranks,
                            Attribution& out, double& unattributed) {
  const RankSpan* critical = nullptr;
  double longest = 0;
  double shortest = std::numeric_limits<double>::infinity();
  double ignored = 0;
  for (const RankSpan& rank : ranks) {
    const Node& node = rank.node();
    if (node.start < run.start || node.end > run.end) continue;
    longest = std::max(longest, duration_s(node));
    shortest = std::min(shortest, duration_s(node));
    if (critical == nullptr || node.end > critical->node().end) {
      critical = &rank;
    }
    walk(*rank.track, rank.index,
         [&out](const Node& n) -> double* {
           if (is(n, "build", "scan_input") || is(n, "build", "scan_view")) {
             return &out.scan_sum_s;
           }
           return is(n, "comm", "reduce") ? &out.reduce_sum_s : nullptr;
         },
         ignored);
  }
  if (critical == nullptr) {
    unattributed += duration_s(run);
    return;
  }
  out.rank_skew_sum += shortest > 0 ? longest / shortest : 1.0;
  out.spawn_join_s += duration_s(run) - duration_s(critical->node());
  walk(*critical->track, critical->index,
       [&out](const Node& n) -> double* {
         if (is(n, "bench", "provide_block")) return &out.extract_s;
         if (is(n, "build", "scan_input") || is(n, "build", "scan_view")) {
           return &out.scan_s;
         }
         if (is(n, "comm", "reduce")) return &out.reduce_s;
         if (is(n, "build", "gather")) return &out.gather_s;
         return nullptr;
       },
       unattributed);
}

void attribute_build(const Track& track, const Node& build,
                     const std::vector<RankSpan>& ranks, Attribution& out) {
  ++out.builds;
  out.build_wall_s += duration_s(build);
  const Node* run = nullptr;
  double unattributed = 0;
  for (std::size_t child : build.children) {
    const Node& node = track.nodes[child];
    if (is(node, "build", "plan_and_verify")) {
      out.plan_s += duration_s(node);
    } else if (is(node, "build", "parallel_run")) {
      run = &node;
    } else {
      unattributed += duration_s(node);
    }
  }
  if (run == nullptr) {
    // No library span inside: a sequential build, one call into core.
    out.seq_build_s += seconds(build.self);
  } else {
    ++out.parallel_builds;
    unattributed += seconds(build.self);
    attribute_parallel_run(*run, ranks, out, unattributed);
  }
  out.build_unattributed_s += unattributed;
}

}  // namespace

Attribution attribute(const obs::TraceCapture& capture) {
  Attribution out;
  std::vector<Track> tracks;
  tracks.reserve(capture.threads.size());
  for (const obs::ThreadCapture& thread : capture.threads) {
    out.records += static_cast<std::int64_t>(thread.records.size());
    out.dropped += thread.dropped;
    tracks.push_back(build_track(thread));
  }
  std::vector<RankSpan> ranks;
  for (const Track& track : tracks) {
    for (std::size_t i = 0; i < track.nodes.size(); ++i) {
      if (is(track.nodes[i], "runtime", "rank")) ranks.push_back({&track, i});
    }
  }
  for (const Track& track : tracks) {
    for (std::size_t i = 0; i < track.nodes.size(); ++i) {
      const Node& node = track.nodes[i];
      if (is(node, "bench", "generate")) {
        ++out.generates;
        out.generate_s += duration_s(node);
      } else if (is(node, "bench", "build")) {
        attribute_build(track, node, ranks, out);
      } else if (is(node, "bench", "query")) {
        ++out.queries;
        out.query_wall_s += duration_s(node);
        walk(track, i,
             [&out](const Node& n) {
               return is(n, "serving", "query") ? &out.compute_s : nullptr;
             },
             out.query_unattributed_s);
      }
    }
  }
  return out;
}

}  // namespace cubist::bench
