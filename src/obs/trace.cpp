// Tracer implementation: buffer registry, capture, Chrome JSON export.
#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/thread_pool.h"

namespace cubist::obs {
namespace {

constexpr std::int64_t kDefaultBufferCapacity = 1 << 16;

bool env_truthy(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return false;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0 ||
         std::strcmp(value, "on") == 0;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || parsed <= 0) return fallback;
  return static_cast<std::int64_t>(parsed);
}

// Identity the calling thread wants for its (lazily created) buffer.
struct PendingIdentity {
  std::string name;
  int tid = kTidMain;
  bool named = false;
};

thread_local PendingIdentity t_identity;
thread_local internal::ThreadBuffer* t_buffer = nullptr;

void json_append_escaped(std::ostringstream& out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out << hex;
        } else {
          out << c;
        }
    }
  }
}

void append_args(std::ostringstream& out, const TraceRecord& record) {
  out << "\"args\":{";
  for (std::uint8_t i = 0; i < record.num_tags; ++i) {
    const TraceTag& tag = record.tags[i];
    if (i > 0) out << ',';
    out << '"';
    json_append_escaped(out, tag.key);
    out << "\":";
    switch (tag.kind) {
      case TraceTag::Kind::kInt: out << tag.int_value; break;
      case TraceTag::Kind::kDouble: out << tag.double_value; break;
      case TraceTag::Kind::kString:
        out << '"';
        json_append_escaped(out, tag.string_value);
        out << '"';
        break;
    }
  }
  out << '}';
}

}  // namespace

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() : capacity_(env_int("CUBIST_TRACE_BUFFER", kDefaultBufferCapacity)) {
  enabled_.store(env_truthy("CUBIST_TRACE"), std::memory_order_relaxed);
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_buffer_capacity(std::int64_t records) {
  CUBIST_CHECK(records > 0, "trace buffer capacity must be positive");
  capacity_.store(records, std::memory_order_relaxed);
}

std::int64_t Tracer::buffer_capacity() const {
  return capacity_.load(std::memory_order_relaxed);
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->count.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

internal::ThreadBuffer& Tracer::this_thread_buffer() {
  if (t_buffer != nullptr) return *t_buffer;
  auto buffer = std::make_shared<internal::ThreadBuffer>();
  buffer->records.resize(
      static_cast<std::size_t>(capacity_.load(std::memory_order_relaxed)));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (t_identity.named) {
      buffer->tid = t_identity.tid;
      buffer->track_name = t_identity.name;
    } else {
      buffer->tid = next_unnamed_tid_++;
      buffer->track_name = "thread-" + std::to_string(buffer->tid);
    }
    buffer->registration_order = registrations_++;
    buffers_.push_back(buffer);
  }
  t_buffer = buffer.get();
  return *t_buffer;
}

TraceCapture Tracer::capture() const {
  std::vector<std::shared_ptr<internal::ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  TraceCapture capture;
  capture.threads.reserve(buffers.size());
  for (const auto& buffer : buffers) {
    ThreadCapture thread;
    thread.tid = buffer->tid;
    thread.track_name = buffer->track_name;
    // Acquire pairs with the emitter's release so the first `n` records
    // are fully written before we copy them.
    const std::int64_t n = buffer->count.load(std::memory_order_acquire);
    thread.dropped = buffer->dropped.load(std::memory_order_relaxed);
    thread.records.assign(buffer->records.begin(),
                          buffer->records.begin() + n);
    capture.threads.push_back(std::move(thread));
  }
  std::stable_sort(capture.threads.begin(), capture.threads.end(),
                   [](const ThreadCapture& a, const ThreadCapture& b) {
                     return a.tid < b.tid;
                   });
  return capture;
}

void set_thread_identity(const std::string& name, int tid) {
  t_identity.name = name;
  t_identity.tid = tid;
  t_identity.named = true;
  if (t_buffer != nullptr) {
    // Rename the existing buffer; the registry mutex orders this against
    // captures (callers must not re-identify mid-capture).
    std::lock_guard<std::mutex> lock(Tracer::instance().mutex_);
    t_buffer->tid = tid;
    t_buffer->track_name = name;
  }
}

void install_worker_identity_hook() {
  ThreadPool::set_worker_thread_hook([](int worker_index) {
    set_thread_identity("pool-worker-" + std::to_string(worker_index),
                        kTidWorkerBase + worker_index);
  });
}

ScopedThreadIdentity::ScopedThreadIdentity(const std::string& name, int tid) {
  previous_name_ = t_identity.name;
  previous_tid_ = t_identity.tid;
  previous_named_ = t_identity.named;
  set_thread_identity(name, tid);
}

ScopedThreadIdentity::~ScopedThreadIdentity() {
  if (previous_named_) {
    set_thread_identity(previous_name_, previous_tid_);
  } else {
    t_identity.named = false;
  }
}

std::int64_t TraceCapture::total_records() const {
  std::int64_t total = 0;
  for (const auto& thread : threads) {
    total += static_cast<std::int64_t>(thread.records.size());
  }
  return total;
}

std::int64_t TraceCapture::total_dropped() const {
  std::int64_t total = 0;
  for (const auto& thread : threads) total += thread.dropped;
  return total;
}

std::string TraceCapture::to_chrome_json() const {
  std::ostringstream out;
  out.setf(std::ios::fmtflags(0), std::ios::floatfield);
  out.precision(3);
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&out, &first] {
    if (!first) out << ',';
    first = false;
  };
  for (const auto& thread : threads) {
    comma();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << thread.tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_append_escaped(out, thread.track_name.c_str());
    out << "\"}}";
  }
  for (const auto& thread : threads) {
    for (const auto& record : thread.records) {
      comma();
      out << "{\"ph\":\"" << (record.instant ? 'i' : 'X')
          << "\",\"pid\":1,\"tid\":" << thread.tid << ",\"name\":\"";
      json_append_escaped(out, record.name);
      out << "\",\"cat\":\"";
      json_append_escaped(out, record.category);
      out << "\",\"ts\":" << std::fixed
          << static_cast<double>(record.start_ns) / 1000.0;
      out.unsetf(std::ios::floatfield);
      if (record.instant) {
        out << ",\"s\":\"t\"";
      } else {
        out << ",\"dur\":" << std::fixed
            << static_cast<double>(record.duration_ns) / 1000.0;
        out.unsetf(std::ios::floatfield);
      }
      out << ',';
      append_args(out, record);
      out << '}';
    }
  }
  out << "]}";
  return out.str();
}

std::string TraceCapture::structure_signature() const {
  std::ostringstream out;
  for (const auto& thread : threads) {
    out << thread.track_name << '#' << thread.tid << '\n';
    for (const auto& record : thread.records) {
      out << "  " << record.category << '/' << record.name
          << (record.instant ? "[i]" : "[x]");
      for (std::uint8_t i = 0; i < record.num_tags; ++i) {
        const TraceTag& tag = record.tags[i];
        out << ' ' << tag.key << '=';
        switch (tag.kind) {
          case TraceTag::Kind::kInt: out << tag.int_value; break;
          case TraceTag::Kind::kDouble: out << "<f>"; break;
          case TraceTag::Kind::kString: out << tag.string_value; break;
        }
      }
      out << '\n';
    }
  }
  return out.str();
}

namespace internal {

ThreadBuffer* begin_record(TraceRecord& record, const char* category,
                           const char* name, bool instant) {
  ThreadBuffer* buffer = &Tracer::instance().this_thread_buffer();
  record.name = name;
  record.category = category;
  record.instant = instant;
  record.start_ns = trace_now_ns();
  return buffer;
}

void commit_record(ThreadBuffer& buffer, TraceRecord& record) {
  if (!record.instant) record.duration_ns = trace_now_ns() - record.start_ns;
  buffer.emit(record);
}

}  // namespace internal

}  // namespace cubist::obs
