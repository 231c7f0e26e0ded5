#ifndef CAFE_BENCHMARK_TRACE_H_
#define CAFE_BENCHMARK_TRACE_H_

// Span recording for the traced run. Every timed call becomes one Span in a
// per-thread vector (no locks after a thread's first span); the vectors
// live until the process exits and are written once, at the end, as Chrome
// trace-event JSON. With tracing off every entry point is one branch.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace cafe {
namespace bench {

/// Span ids carry their kind in the top byte so ids derived from a step,
/// a generation or a request number never collide with each other or with
/// the counter-assigned ids of leaf spans.
enum class SpanKind : uint64_t {
  kLeaf = 0,
  kStep = 1,
  kGeneration = 2,
  kRequest = 3,
};

inline uint64_t SpanId(SpanKind kind, uint64_t n) {
  return (static_cast<uint64_t>(kind) << 56) | (n & ((1ull << 56) - 1));
}

struct Span {
  const char* name = "";  // static string
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root
  uint64_t start_ns = 0;  // steady clock
  uint64_t end_ns = 0;
  uint64_t items = 0;     // ids gathered, samples predicted, ...
  uint32_t tid = 0;
};

/// Steady-clock nanoseconds (the clock every bench timestamp uses).
uint64_t NowNs();

/// Process-wide switch; set once before any thread records.
void EnableTracing(bool on);
bool TracingEnabled();

/// Appends `span` to the calling thread's vector (no-op when disabled).
void RecordSpan(Span span);

/// A fresh leaf id.
uint64_t NextLeafId();

/// Times its own lifetime as one span whose parent is the enclosing
/// ScopedSpan on this thread; nested spans on the thread point to it.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t id = 0, uint64_t items = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_;
};

/// Every span recorded so far, all threads. Call after the recording
/// threads have been joined.
std::vector<Span> CollectSpans();

/// Writes `spans` as Chrome trace-event JSON (chrome://tracing, Perfetto),
/// timestamps relative to `origin_ns`. The two per-request kinds ("request"
/// and the serving-side "serve.gather") are written for one request or
/// batch in 16, which keeps a ladder run's file near 10 MB.
Status WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                        uint64_t origin_ns);

}  // namespace bench
}  // namespace cafe

#endif  // CAFE_BENCHMARK_TRACE_H_
