#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cafe {
namespace bench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double SupportedQuantile(size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return q;
  }
  return 0.0;
}

double RpsAtSlo(const std::vector<LadderStep>& steps, double slo_us) {
  auto passes = [slo_us](const LadderStep& s) {
    return s.p99_us <= slo_us && s.failed == 0 && !s.backlog_grew;
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    if (passes(steps[i])) continue;
    if (i == 0) return 0.0;
    const LadderStep& pass = steps[i - 1];
    const LadderStep& fail = steps[i];
    if (fail.p99_us <= slo_us || pass.p99_us <= 0.0) return pass.rate;
    const double t = (std::log(slo_us) - std::log(pass.p99_us)) /
                     (std::log(fail.p99_us) - std::log(pass.p99_us));
    return pass.rate + std::clamp(t, 0.0, 1.0) * (fail.rate - pass.rate);
  }
  return steps.empty() ? 0.0 : steps.back().rate;
}

obs::Histogram::Snapshot HistogramDelta(const obs::Histogram::Snapshot& end,
                                        const obs::Histogram::Snapshot& begin) {
  obs::Histogram::Snapshot delta = end;
  if (begin.counts.size() != end.counts.size()) return delta;
  for (size_t b = 0; b < delta.counts.size(); ++b) {
    delta.counts[b] -= begin.counts[b];
  }
  delta.count -= begin.count;
  delta.sum -= begin.sum;
  return delta;
}

int Expect(bool ok, const char* what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what);
  return ok ? 0 : 1;
}

int RunStatsSelfTest() {
  int failures = 0;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  failures += Expect(Percentile(hundred, 0.5) == 50.0, "p50 of 1..100 is 50");
  failures += Expect(Percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  failures += Expect(Percentile({}, 0.5) == 0.0, "empty sample reads 0");

  // The percentile rule: ten samples must lie above the reported rank.
  failures += Expect(SupportedQuantile(1000) == 0.99,
                     "n=1000 supports p99 (ranks 991..1000 lie above)");
  failures += Expect(SupportedQuantile(999) == 0.9,
                     "n=999 falls back to p90");
  failures += Expect(SupportedQuantile(10000) == 0.999,
                     "n=10000 supports p99.9");
  failures += Expect(SupportedQuantile(19) == 0.0,
                     "n=19 supports no percentile");
  failures += Expect(SupportedQuantile(20) == 0.5, "n=20 supports p50");

  // Capacity interpolation in log(p99).
  const double slo = 5000.0;
  std::vector<LadderStep> ladder = {{1000, 800, 0, false},
                                    {2000, 2000, 0, false},
                                    {3000, 20000, 0, false}};
  const double expect =
      2000 + 1000 * (std::log(5000.0) - std::log(2000.0)) /
                 (std::log(20000.0) - std::log(2000.0));
  failures += Expect(std::fabs(RpsAtSlo(ladder, slo) - expect) < 1e-9,
                     "rps_at_slo interpolates in log(p99)");
  ladder[2].p99_us = 4000;
  failures += Expect(RpsAtSlo(ladder, slo) == 3000.0,
                     "ceiling: every step passes -> top rate");
  ladder[2].failed = 3;
  failures += Expect(RpsAtSlo(ladder, slo) == 2000.0,
                     "failures alone cap at the last passing rate");
  ladder[2].failed = 0;
  ladder[2].backlog_grew = true;
  failures += Expect(RpsAtSlo(ladder, slo) == 2000.0,
                     "backlog growth alone caps at the last passing rate");
  ladder[0].p99_us = 9000;
  failures += Expect(RpsAtSlo(ladder, slo) == 0.0, "failing first step -> 0");

  obs::Histogram::Snapshot a, b;
  a.bounds = b.bounds = {10, 100};
  a.counts = {1, 1, 0};
  a.count = 2;
  b.counts = {1, 5, 2};
  b.count = 8;
  const obs::Histogram::Snapshot d = HistogramDelta(b, a);
  failures += Expect(d.count == 6 && d.counts[0] == 0 && d.counts[1] == 4,
                     "histogram delta subtracts the earlier collection");
  return failures;
}

}  // namespace bench
}  // namespace cafe
