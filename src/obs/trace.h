// Low-overhead span tracer: per-thread lock-free buffers, Chrome JSON out.
//
// The observability layer's timeline half (docs/OBSERVABILITY.md; the
// metrics half is obs/metrics.h). Instrumented code marks regions with
// RAII `Span`s and point events with `Instant`s; both carry typed
// key-value tags. Records land in a per-thread bounded buffer — the
// emitting thread is the only writer, publication is one release store of
// the record count, so emission takes no locks and never blocks another
// thread. A capture (after the instrumented work quiesces, or at any time
// for a consistent prefix) snapshots every thread's records and exports
// them as Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.
//
// Cost contract: when tracing is disabled every Span/Instant is one
// relaxed atomic load and a branch — cheap enough to leave compiled into
// hot paths permanently (bench/bench_obs.cpp BM_TraceOverhead enforces
// the ≤1% budget on the dense kernel and the serving path;
// docs/PERFORMANCE.md records the numbers). Enablement is runtime-only:
// the CUBIST_TRACE environment variable (1/0) sets the initial state and
// Tracer::set_enabled flips it programmatically.
//
// Buffers are bounded, not wrapping: once a thread's buffer is full,
// further records are counted in `dropped` and discarded, so captured
// records are a deterministic PREFIX of the thread's emission sequence
// (a wrapping ring would make the retained window depend on timing).
// Capacity is per thread (set_buffer_capacity, CUBIST_TRACE_BUFFER).
//
// Thread identity: tracks are keyed by a caller-assigned (name, tid)
// identity — the minimpi runtime names rank threads, the thread pool
// names workers — so track ids are stable across runs regardless of
// thread creation order. Unnamed threads get registration-order ids in a
// reserved range. Tag keys / string values and span names must be
// STATIC strings (literals or arena-stable): records store the pointers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cubist::obs {

/// Stable track-id bases per thread role (Chrome "tid"). Roles never
/// collide: each base is far above any realistic index of the previous.
inline constexpr int kTidMain = 0;
inline constexpr int kTidRankBase = 1000;
inline constexpr int kTidWorkerBase = 2000;
inline constexpr int kTidClientBase = 3000;
inline constexpr int kTidUnnamedBase = 9000;

inline constexpr int kMaxTraceTags = 6;

/// One typed key-value annotation of a span or instant.
struct TraceTag {
  enum class Kind : std::uint8_t { kInt, kDouble, kString };
  const char* key = nullptr;  // static string
  Kind kind = Kind::kInt;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  const char* string_value = nullptr;  // static string
};

/// One recorded event. `duration_ns == 0 && instant` marks a point event.
struct TraceRecord {
  const char* name = nullptr;      // static string
  const char* category = nullptr;  // static string
  std::uint64_t start_ns = 0;      // steady-clock nanoseconds
  std::uint64_t duration_ns = 0;
  bool instant = false;
  std::uint8_t num_tags = 0;
  TraceTag tags[kMaxTraceTags];
};

/// Snapshot of one thread's records (a deterministic emission prefix).
struct ThreadCapture {
  int tid = 0;
  std::string track_name;
  std::int64_t dropped = 0;
  std::vector<TraceRecord> records;
};

/// Snapshot of every thread's records, ordered by tid (registration
/// order within equal tids).
struct TraceCapture {
  std::vector<ThreadCapture> threads;

  std::int64_t total_records() const;
  std::int64_t total_dropped() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}): thread-name
  /// metadata, "X" complete events for spans, "i" instants, timestamps
  /// in fractional microseconds. Loadable in Perfetto.
  std::string to_chrome_json() const;

  /// Timestamp-free structural digest: per thread, the sequence of
  /// (category, name, tag keys, string/int tag values — doubles
  /// excluded as timing-dependent). Two runs of a deterministic workload
  /// produce identical signatures even though every timestamp differs.
  std::string structure_signature() const;
};

namespace internal {

/// Per-thread record buffer. The owning thread is the only writer;
/// `count` is published with release stores so concurrent captures read
/// a consistent prefix.
struct ThreadBuffer {
  int tid = 0;
  std::string track_name;
  std::vector<TraceRecord> records;  // resized to capacity up front
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> dropped{0};
  std::uint64_t registration_order = 0;

  void emit(const TraceRecord& record) {
    const std::int64_t n = count.load(std::memory_order_relaxed);
    if (n >= static_cast<std::int64_t>(records.size())) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    records[static_cast<std::size_t>(n)] = record;
    count.store(n + 1, std::memory_order_release);
  }
};

}  // namespace internal

class Tracer {
 public:
  /// The process-wide tracer. First use reads CUBIST_TRACE ("1"/"true"
  /// enables) and CUBIST_TRACE_BUFFER (records per thread).
  static Tracer& instance();

  /// The one check every Span/Instant makes first. Relaxed load.
  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Per-thread record capacity for buffers created AFTER the call.
  void set_buffer_capacity(std::int64_t records);
  std::int64_t buffer_capacity() const;

  /// Clears every thread's records and drop counters (buffers and
  /// identities survive). Call while instrumented code is quiescent:
  /// records emitted concurrently with a reset may land on either side.
  void reset();

  /// Snapshots all threads. Safe concurrently with emission — each
  /// thread's snapshot is a consistent prefix of its emission order.
  TraceCapture capture() const;

  /// This thread's buffer, created (and registered) on first use.
  internal::ThreadBuffer& this_thread_buffer();

 private:
  friend void set_thread_identity(const std::string& name, int tid);

  Tracer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // registry of buffers, not the hot path
  std::atomic<std::int64_t> capacity_;
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers_;
  std::uint64_t registrations_ = 0;
  int next_unnamed_tid_ = kTidUnnamedBase;
};

/// Names the calling thread's trace track BEFORE it first emits:
/// `set_thread_identity("rank-3", kTidRankBase + 3)`. Re-identifying a
/// thread renames its (single) buffer; call only while no capture is in
/// flight. Identity persists for the thread's lifetime.
void set_thread_identity(const std::string& name, int tid);

/// Installs a ThreadPool worker-start hook that names pool workers
/// "pool-worker-<i>" at kTidWorkerBase + i. Applies to workers spawned
/// after the call — invoke before the global pool's first use (the
/// cubist-trace tool does this up front).
void install_worker_identity_hook();

/// RAII identity for worker/rank threads whose role outlives one task:
/// restores the previous identity on destruction.
class ScopedThreadIdentity {
 public:
  ScopedThreadIdentity(const std::string& name, int tid);
  ~ScopedThreadIdentity();

  ScopedThreadIdentity(const ScopedThreadIdentity&) = delete;
  ScopedThreadIdentity& operator=(const ScopedThreadIdentity&) = delete;

 private:
  std::string previous_name_;
  int previous_tid_ = kTidMain;
  bool previous_named_ = false;
};

std::uint64_t trace_now_ns();

namespace internal {

/// Starts `record` on the calling thread's buffer, which it returns.
ThreadBuffer* begin_record(TraceRecord& record, const char* category,
                           const char* name, bool instant);
/// Stamps a span's duration and emits `record` into `buffer`.
void commit_record(ThreadBuffer& buffer, TraceRecord& record);

/// What Span and Instant share: the record being built and the buffer it
/// commits to on destruction. The buffer is null while tracing is
/// disabled, so the constructor is one relaxed load and a branch, and
/// every tag one branch.
template <typename Self>
class TraceScope {
 public:
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  Self& tag(const char* key, std::int64_t value) {
    return add({key, TraceTag::Kind::kInt, value, 0.0, nullptr});
  }
  Self& tag(const char* key, double value) {
    return add({key, TraceTag::Kind::kDouble, 0, value, nullptr});
  }
  Self& tag(const char* key, const char* value) {  // static string
    return add({key, TraceTag::Kind::kString, 0, 0.0, value});
  }

 protected:
  TraceScope(const char* category, const char* name, bool instant) {
    if (!Tracer::enabled()) return;
    buffer_ = begin_record(record_, category, name, instant);
  }
  ~TraceScope() { commit(); }

  /// Commits the record once; later calls do nothing.
  void commit() {
    if (buffer_ == nullptr) return;
    commit_record(*buffer_, record_);
    buffer_ = nullptr;
  }

  ThreadBuffer* buffer_ = nullptr;

 private:
  Self& add(const TraceTag& tag) {
    // Tags past kMaxTraceTags are dropped.
    if (buffer_ != nullptr && record_.num_tags < kMaxTraceTags) {
      record_.tags[record_.num_tags++] = tag;
    }
    return static_cast<Self&>(*this);
  }

  TraceRecord record_;
};

}  // namespace internal

/// RAII timed region. Construction stamps the start, destruction stamps
/// the duration and commits the record.
class Span : public internal::TraceScope<Span> {
 public:
  Span(const char* category, const char* name)
      : TraceScope(category, name, /*instant=*/false) {}

  /// Commits the span now instead of at scope exit (idempotent).
  void end() { commit(); }

  bool active() const { return buffer_ != nullptr; }
};

/// Point event; commits on destruction so tags can be chained:
/// `Instant("serving", "cache.miss").tag("bytes", n);`
class Instant : public internal::TraceScope<Instant> {
 public:
  Instant(const char* category, const char* name)
      : TraceScope(category, name, /*instant=*/true) {}
};

}  // namespace cubist::obs
