#include "workloads.h"

namespace cafe {
namespace bench {

// Why each workload exists is recorded in README.md and BENCHMARK.json.
// steps_per_s and the serve-burst ladder were measured on a 4-vCPU Xeon
// host (see baseline/); they size the work, they are not pass marks.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> all;

    Workload criteo;
    criteo.name = "criteo26";
    criteo.fields = 26;
    criteo.total_features = 2'000'000;
    criteo.cardinality_ratio = 0.6;
    criteo.numerical = 13;
    criteo.zipf = 1.1;
    criteo.samples = 300'000;
    criteo.compression_ratio = 100.0;
    criteo.batch = 512;
    criteo.cut_interval = 10;
    criteo.warmup_steps = 32;
    criteo.steps_per_s = 65.0;
    criteo.workers = 1;
    criteo.rates = {1000.0};
    all.push_back(criteo);

    Workload wide;
    wide.name = "wide-catalog";
    wide.fields = 8;
    wide.total_features = 12'000'000;
    wide.cardinality_ratio = 0.6;
    wide.numerical = 4;
    wide.zipf = 1.05;
    wide.samples = 300'000;
    wide.compression_ratio = 10.0;
    wide.batch = 4096;
    wide.backward_threads = 2;
    wide.cut_interval = 20;
    wide.warmup_steps = 8;
    wide.steps_per_s = 27.0;
    wide.workers = 1;
    wide.rates = {200.0};
    all.push_back(wide);

    Workload burst;
    burst.name = "serve-burst";
    burst.fields = 12;
    burst.total_features = 2'000'000;
    burst.cardinality_ratio = 0.65;
    burst.numerical = 4;
    burst.zipf = 1.1;
    burst.samples = 100'000;
    burst.compression_ratio = 100.0;
    burst.batch = 256;
    burst.cut_interval = 10;
    burst.warmup_steps = 32;
    burst.steps_per_s = 20.0;
    burst.paced = true;
    burst.workers = 2;
    burst.max_queue_samples = 0;
    constexpr double kCapacity = 23000.0;  // 2-worker req/s on the host above
    for (double share : {0.5, 0.7, 0.8, 0.9, 1.0, 1.1, 1.25}) {
      burst.rates.push_back(share * kCapacity);
    }
    all.push_back(burst);

    Workload churn;
    churn.name = "churn";
    churn.fields = 12;
    churn.total_features = 4'000'000;
    churn.cardinality_ratio = 0.6;
    churn.numerical = 4;
    churn.zipf = 0.9;
    churn.samples = 400'000;
    churn.compression_ratio = 4.0;
    churn.batch = 1024;
    churn.cut_interval = 4;
    churn.warmup_steps = 32;
    churn.steps_per_s = 75.0;
    churn.workers = 1;
    churn.rates = {500.0};
    all.push_back(churn);
    return all;
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace bench
}  // namespace cafe
