#ifndef CAFE_BENCHMARK_STATS_H_
#define CAFE_BENCHMARK_STATS_H_

// The benchmark's own arithmetic: percentiles, the rule that decides which
// percentile a sample supports, and the serving-capacity interpolation.
// Kept apart from the loop so `cafe_bench --selftest` can check it.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace cafe {
namespace bench {

/// Nearest-rank percentile, q in [0, 1]: the smallest sample with at least
/// q*n samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// The highest of p50 / p90 / p99 / p99.9 that leaves at least ten samples
/// above it in a sample of `n` (nearest rank), or 0 when even p50 does not.
double SupportedQuantile(size_t n);

/// One offered rate of the serving ladder.
struct LadderStep {
  double rate = 0.0;     // offered requests per second
  double p99_us = 0.0;   // due time -> response observed
  uint64_t failed = 0;   // refused or errored requests
  bool backlog_grew = false;
};

/// Highest offered rate that meets the latency limit: p99 <= `slo_us`, no
/// failures and no backlog growth. Interpolates in log(p99) between the
/// last passing step and the first failing one; the ceiling case (every
/// step passes) reports the top rate, and a failing first step reports 0.
/// A step that fails on failures or backlog alone (p99 within the limit)
/// caps the answer at the last passing rate.
double RpsAtSlo(const std::vector<LadderStep>& steps, double slo_us);

/// Registry histogram restricted to what was recorded between two
/// collections (bucket counts subtracted), so a phase's quantiles exclude
/// set-up traffic recorded earlier in the same process.
obs::Histogram::Snapshot HistogramDelta(const obs::Histogram::Snapshot& end,
                                        const obs::Histogram::Snapshot& begin);

/// Unit checks of the functions above; returns the number of failed checks
/// and prints one line per check.
int RunStatsSelfTest();

/// Shared by the self-tests: prints the check and returns 1 on failure.
int Expect(bool ok, const char* what);

}  // namespace bench
}  // namespace cafe

#endif  // CAFE_BENCHMARK_STATS_H_
