#ifndef CAFE_BENCHMARK_LOADGEN_H_
#define CAFE_BENCHMARK_LOADGEN_H_

// Seeded open-loop load: requests are sent on a Poisson schedule whatever
// the server does, and responses are taken in FIFO order. Latency runs from
// the request's DUE time to the moment its response is observed, so a stall
// is charged to every request queued behind it, including requests the
// generator itself sent late.
//
// Sending and collecting share one thread that never sleeps. On a shared
// virtual host a sleeping thread can wake milliseconds late; that delay
// would land in the generator's lateness or in every observed latency. The
// thread polls the oldest outstanding response between sends, so a response
// behind an unfinished older one is observed when the older one completes
// (with several server workers, at most one micro-batch late).

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/status.h"

namespace cafe {
namespace bench {

struct RequestRecord {
  uint64_t id = 0;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;  // sent_ns - due_ns is the generator's lateness
  uint64_t done_ns = 0;  // response observed (or refusal returned)
  uint32_t logits = 0;
  bool ok = false;       // false = refused or errored
};

class OpenLoopLoad {
 public:
  /// Offered requests per second at `elapsed_s` into the schedule.
  using RateFn = std::function<double(double elapsed_s)>;
  /// Sends request `id` for the slice starting at dataset sample `sample`.
  /// A non-OK status (e.g. ResourceExhausted) is a refused request.
  using SubmitFn = std::function<StatusOr<std::future<std::vector<float>>>(
      uint64_t id, size_t sample)>;

  /// Called with the current time on every idle turn of the load thread
  /// (between sends); lets the caller timestamp an event without a thread
  /// of its own that would have to sleep. May be empty.
  using IdleFn = std::function<void(uint64_t now_ns)>;

  /// Arrival gaps and slice starts (uniform over
  /// [sample_begin, sample_begin + sample_span)) come from `seed` alone.
  OpenLoopLoad(SubmitFn submit, RateFn rate, uint64_t seed,
               size_t sample_begin, size_t sample_span, IdleFn idle = {});
  ~OpenLoopLoad();
  OpenLoopLoad(const OpenLoopLoad&) = delete;
  OpenLoopLoad& operator=(const OpenLoopLoad&) = delete;

  /// Starts the load thread; the schedule's time zero is `origin_ns`.
  void Start(uint64_t origin_ns);
  /// Stops sending, waits for every outstanding response and joins the
  /// thread. Idempotent.
  void Stop();
  /// Every request sent, in send order. Call after Stop().
  const std::vector<RequestRecord>& records() const { return records_; }

 private:
  void Run(uint64_t origin_ns);

  SubmitFn submit_;
  RateFn rate_;
  uint64_t seed_;
  size_t sample_begin_;
  size_t sample_span_;
  IdleFn idle_;
  std::atomic<bool> stop_{false};
  std::vector<RequestRecord> records_;  // load-thread-owned until joined
  std::thread thread_;
};

/// Due-time accounting against a synthetic server whose Submit blocks for
/// 50 ms: every request due during the stall must absorb it. Returns the
/// number of failed checks.
int RunLoadgenSelfTest();

}  // namespace bench
}  // namespace cafe

#endif  // CAFE_BENCHMARK_LOADGEN_H_
