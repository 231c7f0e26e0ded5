#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "io/serialize.h"
#include "obs/json_writer.h"

namespace cafe {
namespace bench {
namespace {

constexpr uint64_t kPerRequestSampling = 16;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_leaf{1};
std::atomic<uint32_t> g_next_tid{1};

// Owns every thread's span vector, so spans outlive the threads that
// recorded them. The mutex is taken once per thread (first span) and by
// CollectSpans.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<std::vector<Span>>>;
  return *buffers;
}

struct ThreadState {
  std::vector<Span>* spans = nullptr;
  uint32_t tid = 0;
  uint64_t current = 0;
};
thread_local ThreadState tls;

std::vector<Span>* ThreadSpans() {
  if (tls.spans == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 14);
    tls.spans = buffer.get();
    tls.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(buffer));
  }
  return tls.spans;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_release); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void RecordSpan(Span span) {
  if (!TracingEnabled()) return;
  std::vector<Span>* spans = ThreadSpans();
  span.tid = tls.tid;
  spans->push_back(span);
}

uint64_t NextLeafId() {
  return SpanId(SpanKind::kLeaf,
                g_next_leaf.fetch_add(1, std::memory_order_relaxed));
}

ScopedSpan::ScopedSpan(const char* name, uint64_t id, uint64_t items)
    : active_(TracingEnabled()) {
  if (!active_) return;
  span_.name = name;
  span_.id = id != 0 ? id : NextLeafId();
  span_.parent = tls.current;
  span_.items = items;
  tls.current = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tls.current = span_.parent;
  RecordSpan(span_);
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

Status WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                        uint64_t origin_ns) {
  auto hex = [](uint64_t v) {
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buffer);
  };
  obs::JsonWriter json;
  json.BeginObject();
  json.Field("displayTimeUnit", "ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (const Span& span : spans) {
    if (span.end_ns < origin_ns) continue;
    const bool per_request = std::strcmp(span.name, "request") == 0 ||
                             std::strcmp(span.name, "serve.gather") == 0;
    const uint64_t key = std::strcmp(span.name, "request") == 0 ? span.id
                                                                : span.parent;
    if (per_request && key % kPerRequestSampling != 0) continue;
    const uint64_t start = span.start_ns > origin_ns ? span.start_ns - origin_ns : 0;
    json.BeginObject();
    json.Field("name", span.name);
    json.Field("ph", "X");
    json.Field("ts", static_cast<double>(start) / 1e3);
    json.Field("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    json.Field("pid", 1);
    json.Field("tid", static_cast<int>(span.tid));
    json.Key("args");
    json.BeginObject();
    json.Field("id", hex(span.id));
    json.Field("parent", hex(span.parent));
    if (span.items != 0) json.Field("items", span.items);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return io::WriteFileAtomic(path, json.str());
}

}  // namespace bench
}  // namespace cafe
