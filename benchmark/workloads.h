#ifndef CAFE_BENCHMARK_WORKLOADS_H_
#define CAFE_BENCHMARK_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cafe {
namespace bench {

/// One shape of the online loop. Every workload trains DLRM over a `cafe`
/// store, cuts incremental snapshots, ships them to one replica over
/// loopback TCP and serves 16-sample requests from that replica.
struct Workload {
  std::string name;

  // Dataset.
  size_t fields = 0;
  uint64_t total_features = 0;
  double cardinality_ratio = 0.6;  // GeometricCardinalities decay
  uint32_t numerical = 0;
  double zipf = 1.1;
  uint64_t samples = 0;  // all days; the last day is the test day

  // Trainer.
  double compression_ratio = 100.0;
  size_t batch = 512;
  uint32_t backward_threads = 1;
  uint64_t cut_interval = 10;  // trainer steps between serviced cuts
  size_t warmup_steps = 32;
  /// Sizes the measured phase: round(steps_per_s * --seconds) steps, a
  /// fixed amount of work so the final model is the same on every run.
  double steps_per_s = 0.0;
  /// True: step i of the phase starts no earlier than i / steps_per_s
  /// seconds in, so training load stays the same whatever the step costs.
  bool paced = false;

  // Server.
  size_t workers = 1;
  size_t max_queue_samples = 8192;  // 0 = unbounded
  /// Offered request rates in req/s. One entry: a constant rate. Several:
  /// a ladder, each rate held for an equal share of the measured phase.
  std::vector<double> rates;
};

/// The four workloads, in their canonical order.
const std::vector<Workload>& Workloads();

/// Null when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

}  // namespace bench
}  // namespace cafe

#endif  // CAFE_BENCHMARK_WORKLOADS_H_
