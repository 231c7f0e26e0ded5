#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>

#include "common/random.h"
#include "stats.h"
#include "trace.h"

namespace cafe {
namespace bench {
namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

struct InFlight {
  RequestRecord record;
  std::future<std::vector<float>> response;
};

bool Ready(const std::future<std::vector<float>>& response) {
  return response.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

}  // namespace

OpenLoopLoad::OpenLoopLoad(SubmitFn submit, RateFn rate, uint64_t seed,
                           size_t sample_begin, size_t sample_span,
                           IdleFn idle)
    : submit_(std::move(submit)),
      rate_(std::move(rate)),
      seed_(seed),
      sample_begin_(sample_begin),
      sample_span_(sample_span),
      idle_(std::move(idle)) {}

OpenLoopLoad::~OpenLoopLoad() { Stop(); }

void OpenLoopLoad::Start(uint64_t origin_ns) {
  thread_ = std::thread([this, origin_ns] { Run(origin_ns); });
}

void OpenLoopLoad::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void OpenLoopLoad::Run(uint64_t origin_ns) {
  Rng rng(seed_);
  double elapsed_s = 0.0;
  uint64_t next_id = 0;
  uint64_t next_due = 0;
  size_t next_sample = 0;
  auto draw = [&] {
    elapsed_s += -std::log1p(-rng.UniformDouble()) / rate_(elapsed_s);
    next_sample = sample_begin_ + rng.Uniform(sample_span_);
    next_due = origin_ns + static_cast<uint64_t>(std::llround(elapsed_s * 1e9));
    ++next_id;
  };
  draw();

  std::deque<InFlight> in_flight;
  auto finish = [this](InFlight& request) {
    RequestRecord& record = request.record;
    if (request.response.valid()) {
      try {
        const std::vector<float> logits = request.response.get();
        record.logits = static_cast<uint32_t>(logits.size());
        record.ok = true;
      } catch (const std::exception&) {
      }
      record.done_ns = NowNs();
    }
    RecordSpan({"request", SpanId(SpanKind::kRequest, record.id), 0,
                record.due_ns, record.done_ns, 0, 0});
    records_.push_back(record);
  };

  bool sending = true;
  for (;;) {
    while (!in_flight.empty() && (!in_flight.front().response.valid() ||
                                  Ready(in_flight.front().response))) {
      finish(in_flight.front());
      in_flight.pop_front();
    }
    if (sending && stop_.load(std::memory_order_acquire)) sending = false;
    if (!sending) {
      if (in_flight.empty()) return;
      finish(in_flight.front());  // blocks: nothing is left to send
      in_flight.pop_front();
      continue;
    }
    const uint64_t now = NowNs();
    if (now < next_due) {
      if (idle_) idle_(now);
      CpuRelax();
      continue;
    }
    InFlight request;
    request.record.id = next_id;
    request.record.due_ns = next_due;
    request.record.sent_ns = NowNs();
    auto submitted = submit_(next_id, next_sample);
    if (submitted.ok()) {
      request.response = std::move(submitted).value();
    } else {
      request.record.done_ns = NowNs();
    }
    in_flight.push_back(std::move(request));
    draw();
  }
}

int RunLoadgenSelfTest() {
  // 2000 req/s for 300 ms; Submit blocks from 100 ms to 150 ms, as a server
  // whose queue lock is held would. The generator falls behind during the
  // stall, so timing from the SEND would hide it; timing from the due time
  // must charge every request due in the window with the rest of the stall.
  const uint64_t origin = NowNs() + 5'000'000;
  const uint64_t stall_begin = origin + 100'000'000;
  const uint64_t stall_end = origin + 150'000'000;
  OpenLoopLoad load(
      [stall_begin, stall_end](uint64_t, size_t)
          -> StatusOr<std::future<std::vector<float>>> {
        const uint64_t now = NowNs();
        if (now >= stall_begin && now < stall_end) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(stall_end - now));
        }
        std::promise<std::vector<float>> promise;
        promise.set_value(std::vector<float>(16, 0.0f));
        return promise.get_future();
      },
      [](double) { return 2000.0; }, /*seed=*/7, 0, 1000);
  load.Start(origin);
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(origin + 300'000'000)));
  load.Stop();

  size_t in_stall = 0;
  size_t absorbed = 0;
  double max_stall_latency_ms = 0.0;
  for (const RequestRecord& r : load.records()) {
    if (r.due_ns < stall_begin || r.due_ns >= stall_end) continue;
    ++in_stall;
    if (r.ok && r.done_ns >= stall_end) ++absorbed;
    max_stall_latency_ms =
        std::max(max_stall_latency_ms, (r.done_ns - r.due_ns) / 1e6);
  }
  std::printf("  (%zu requests due in the stall, max latency %.1f ms)\n",
              in_stall, max_stall_latency_ms);
  int failures = 0;
  failures += Expect(in_stall >= 50, "the stall window holds >= 50 requests");
  failures += Expect(absorbed == in_stall,
                     "every request due in the stall absorbs the rest of it");
  failures += Expect(max_stall_latency_ms >= 45.0,
                     "the first stalled request is charged ~50 ms");
  bool all_ok = !load.records().empty();
  for (const RequestRecord& r : load.records()) all_ok &= r.ok && r.logits == 16;
  failures += Expect(all_ok, "every response carries its 16 logits");
  return failures;
}

}  // namespace bench
}  // namespace cafe
