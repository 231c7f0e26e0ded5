// cafe_bench: one run of one workload of the online loop, end to end.
//
//   main thread      DLRM TrainStep + SnapshotManager::AtStepBoundary
//   rollout thread   SnapshotManager::Cut() in incremental mode, in a loop
//   replication      ReplicationSource -> loopback TCP -> ReplicaManager
//   serving          InferenceServer over the replica's SwappableStore,
//                    driven by a seeded open-loop generator
//
// Usage:
//   cafe_bench --workload <name> [--seed <u64>] [--seconds <s>] [--trace]
//              [--smoke] [--out <dir>] [--backward-threads <n>]
//              [--workers <n>]
//   cafe_bench --selftest | --fingerprint
//
// Prints "<workload> <metric> <value> <unit>" lines, writes
// <out>/<workload>[.trace].json (and, traced, <out>/<workload>.spans.json in
// Chrome trace-event format) and exits non-zero if a correctness check
// fails. benchmark/run.sh builds this binary and drives it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/cafe_embedding.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "io/serialize.h"
#include "loadgen.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "replicate/replica_manager.h"
#include "replicate/replication_source.h"
#include "replicate/transport.h"
#include "serve/inference_server.h"
#include "serve/snapshot_manager.h"
#include "stats.h"
#include "timed.h"
#include "trace.h"
#include "train/metrics.h"
#include "train/model_factory.h"
#include "train/store_factory.h"
#include "workloads.h"

namespace cafe {
namespace bench {
namespace {

constexpr size_t kRequestSize = 16;
constexpr double kSloUs = 5000.0;
/// The dataset (planted teacher and samples) does not follow --seed: a run
/// trains a fixed amount of work on it, so test_auc, avg_train_loss and
/// store_mb are the same for every seed and can be gated tightly. The seed
/// drives the arrival schedule, the request slices and the row probe.
constexpr uint64_t kDatasetSeed = 1;
/// A run whose generator sent its requests later than this at p99 measured
/// the generator, not the server; it is marked incorrect.
constexpr double kMaxLagP99Us = 200.0;
/// The ladder rung the serve_* latency metrics read: 0.5 x capacity, well
/// below it, so a transient stall drains within the rung.
constexpr size_t kReferenceRung = 0;
/// setup_s is the median of several complete set-ups in one run: at least
/// kMinSetups, and more (up to kMaxSetups) while they add up to less than
/// kSetupBudgetS, so a cheap set-up's median rests on enough samples.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kRateWindowSteps = 32;
constexpr size_t kLatencyWindows = 7;  // serve.p99_us.step1..7
constexpr size_t kProbeIds = 100'000;
constexpr size_t kParitySamples = 4096;
constexpr uint64_t kReplicaWaitUs = 30'000'000;
constexpr uint32_t kDim = 16;
/// Refused requests enter the latency percentiles as missing every limit.
constexpr double kRefusedLatencyUs = 1e12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out = "build-bench/out";
  uint32_t backward_threads = 0;  // 0 = the workload's own
  size_t workers = 0;             // 0 = the workload's own
};

struct SetupTimes {
  double dataset_s = 0, build_s = 0, warmup_s = 0, base_cut_s = 0,
         replica_join_s = 0;
  double total() const {
    return dataset_s + build_s + warmup_s + base_cut_s + replica_join_s;
  }
};

/// One instance of the online loop. Members are declared in dependency
/// order, so the implicit member destruction tears it down in reverse:
/// server, manager, replica, replication source, model, store, dataset.
struct Loop {
  Loop() = default;
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;
  ~Loop() {
    if (server != nullptr) server->Shutdown();
    if (backward_pool != nullptr) live_model->SetBackwardParallelism(nullptr, 1);
  }

  SnapshotManager::FreshStoreFactory Factory() const {
    return [context = &context] { return MakeStore("cafe", *context); };
  }

  /// Trains step `step + 1` on the next training slice (the split is
  /// replayed from the start when exhausted); returns its loss.
  double Step() {
    const uint64_t k = ++step;
    const size_t usable = data->train_size() / batch * batch;
    const Batch slice = data->GetBatch((k - 1) * batch % usable, batch);
    ScopedSpan span("train.step", SpanId(SpanKind::kStep, k), batch);
    return live_model->TrainStep(slice);
  }

  /// The step boundary where a pending cut copies the trainer's state.
  void Boundary() {
    const uint64_t begin = NowNs();
    manager->AtStepBoundary(step);
    if (TracingEnabled()) {
      RecordSpan({"train.boundary", NextLeafId(), SpanId(SpanKind::kStep, step),
                  begin, NowNs(), 0, 0});
    }
  }

  size_t batch = 0;
  uint64_t step = 0;
  std::unique_ptr<SyntheticCtrDataset> data;
  StoreFactoryContext context;
  ModelConfig model_config;
  std::unique_ptr<EmbeddingStore> live_store;
  std::unique_ptr<TimedStore> timed_live;  // traced runs only
  EmbeddingStore* train_store = nullptr;   // timed_live or live_store
  std::unique_ptr<RecModel> live_model;
  std::unique_ptr<ThreadPool> backward_pool;
  std::unique_ptr<replicate::ReplicationSource> source;
  std::unique_ptr<replicate::ReplicaManager> replica;
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<TimedStore> timed_replica;  // traced runs only
  std::unique_ptr<InferenceServer> server;
};

/// Dataset -> live store + model -> replication link -> warm-up steps ->
/// base cut -> replica at generation 1 -> server started over the replica.
StatusOr<std::unique_ptr<Loop>> SetUp(const Workload& w, const Args& args,
                                      SetupTimes* times) {
  auto loop = std::make_unique<Loop>();
  loop->batch = w.batch;
  uint64_t mark = NowNs();
  auto lap = [&mark] {
    const uint64_t now = NowNs();
    const double seconds = static_cast<double>(now - mark) / 1e9;
    mark = now;
    return seconds;
  };

  SyntheticDatasetConfig data_config;
  data_config.name = w.name;
  data_config.field_cardinalities =
      GeometricCardinalities(w.fields, w.total_features, w.cardinality_ratio);
  data_config.num_numerical = w.numerical;
  // The smoke run checks correctness only, on a quarter of the data.
  data_config.num_samples = args.smoke ? w.samples / 4 : w.samples;
  data_config.zipf_z = w.zipf;
  data_config.seed = kDatasetSeed;
  auto data = SyntheticCtrDataset::Generate(data_config);
  if (!data.ok()) return data.status();
  loop->data = std::move(data).value();
  if (loop->data->train_size() < w.batch) {
    return Status::InvalidArgument("training split smaller than one batch");
  }
  times->dataset_s = lap();

  loop->context.embedding.total_features =
      loop->data->layout().total_features();
  loop->context.embedding.dim = kDim;
  loop->context.embedding.compression_ratio = w.compression_ratio;
  loop->context.embedding.seed = 97;
  loop->context.layout = loop->data->layout();
  loop->context.cafe.decay_interval = 100;
  ModelConfig& model_config = loop->model_config;
  model_config.num_fields = w.fields;
  model_config.emb_dim = kDim;
  model_config.num_numerical = w.numerical;
  model_config.top_hidden = {64, 32};
  model_config.emb_lr = 0.2f;
  model_config.dense_lr = 0.05f;
  model_config.dense_optimizer = "adagrad";
  model_config.seed = 1234;

  auto store = MakeStore("cafe", loop->context);
  if (!store.ok()) return store.status();
  loop->live_store = std::move(store).value();
  loop->train_store = loop->live_store.get();
  if (args.trace) {
    loop->timed_live =
        std::make_unique<TimedStore>(loop->live_store.get(), /*serving=*/false);
    loop->train_store = loop->timed_live.get();
  }
  auto model = MakeModel("dlrm", model_config, loop->train_store);
  if (!model.ok()) return model.status();
  loop->live_model = std::move(model).value();
  const uint32_t threads =
      args.backward_threads > 0 ? args.backward_threads : w.backward_threads;
  if (threads > 1) {
    loop->backward_pool = std::make_unique<ThreadPool>(threads);
    loop->live_model->SetBackwardParallelism(loop->backward_pool.get(), threads);
  }

  // The replication source is built before the manager that feeds it, and
  // the replica announces itself before the base cut it will receive. The
  // link is loopback TCP: the in-process pipe transport erases each read
  // from the front of one buffer, which is quadratic in the frame size and
  // does not deliver a 100 MB base within the replica wait.
  loop->source =
      std::make_unique<replicate::ReplicationSource>(loop->Factory());
  auto link = replicate::MakeTcpTransport();
  if (!link.ok()) return link.status();
  CAFE_RETURN_IF_ERROR(loop->source->AddReplica(std::move(link->source)));
  replicate::ReplicaManager::Options replica_options;
  replica_options.name = "replica0";
  loop->replica = std::make_unique<replicate::ReplicaManager>(
      loop->Factory(), std::move(link->replica), replica_options);
  CAFE_RETURN_IF_ERROR(loop->replica->Start());
  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = w.cut_interval;
  manager_options.incremental = true;
  manager_options.payload_observer = loop->source->MakeObserver();
  loop->manager = std::make_unique<SnapshotManager>(
      loop->train_store, loop->live_model.get(), loop->Factory(),
      manager_options);
  times->build_s = lap();

  const size_t warmup_steps =
      args.smoke ? std::min<size_t>(w.warmup_steps, 8) : w.warmup_steps;
  for (size_t i = 0; i < warmup_steps; ++i) {
    loop->Step();
    loop->Boundary();
  }
  times->warmup_s = lap();

  auto base = loop->manager->Cut();  // no trainer active: a direct copy
  if (!base.ok()) return base.status();
  times->base_cut_s = lap();

  CAFE_RETURN_IF_ERROR(
      loop->replica->WaitForGeneration((*base)->generation, kReplicaWaitUs));
  base->reset();
  EmbeddingStore* serve_store = loop->replica->swappable();
  if (args.trace) {
    loop->timed_replica =
        std::make_unique<TimedStore>(serve_store, /*serving=*/true);
    serve_store = loop->timed_replica.get();
  }
  InferenceServerOptions server_options;
  server_options.num_workers = args.workers > 0 ? args.workers : w.workers;
  server_options.max_queue_samples = w.max_queue_samples;
  server_options.num_fields = w.fields;
  server_options.num_numerical = w.numerical;
  const bool timed = args.trace;
  auto server = InferenceServer::Start(
      server_options,
      [&model_config, serve_store,
       timed](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        auto replica_model = MakeModel("dlrm", model_config, serve_store);
        if (!replica_model.ok() || !timed) return replica_model;
        return std::unique_ptr<RecModel>(
            new TimedModel(std::move(replica_model).value()));
      },
      loop->replica->swappable());
  if (!server.ok()) return server.status();
  loop->server = std::move(server).value();
  times->replica_join_s = lap();
  return loop;
}

// ---------------------------------------------------------------------------
// Metric plumbing.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The shipped obs registry at one instant, by name.
class Registry {
 public:
  static Registry Now() {
    Registry now;
    for (auto& entry : obs::MetricsRegistry::Global().Collect()) {
      now.entries_[entry.name] = std::move(entry);
    }
    return now;
  }
  uint64_t Counter(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.counter;
  }
  double Gauge(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.gauge;
  }
  obs::Histogram::Snapshot Hist(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? obs::Histogram::Snapshot{} : it->second.hist;
  }

 private:
  std::map<std::string, obs::MetricsRegistry::Entry> entries_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// User + system CPU seconds of every thread of the process so far.
double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Durations (us) and item totals of the spans named `name` whose start lies
/// in [begin, end).
struct SpanSet {
  std::vector<double> us;
  double total_us = 0;
  uint64_t items = 0;
};
SpanSet Select(const std::vector<Span>& spans, const char* name,
               uint64_t begin, uint64_t end) {
  SpanSet set;
  for (const Span& s : spans) {
    if (s.start_ns < begin || s.start_ns >= end) continue;
    if (std::strcmp(s.name, name) != 0) continue;
    const double us = Us(s.end_ns - s.start_ns);
    set.us.push_back(us);
    set.total_us += us;
    set.items += s.items;
  }
  return set;
}

/// The requests due in [begin, end), plus the responses observed in it.
struct Window {
  uint64_t begin = 0, end = 0;
  double rate = 0;  // offered req/s (ladder steps)
  std::vector<double> latency_us;  // refused requests at kRefusedLatencyUs
  std::vector<double> lag_us;
  uint64_t attempted = 0, failed = 0, within_slo = 0, answered = 0;
  uint64_t completed = 0;  // responses observed inside the window
  bool backlog_grew = false;

  double CompletedPerSecond() const {
    return static_cast<double>(completed) * 1e9 /
           static_cast<double>(end - begin);
  }
};

/// Requests due but not yet answered at `t`.
size_t Outstanding(const std::vector<RequestRecord>& records, uint64_t t) {
  size_t n = 0;
  for (const RequestRecord& r : records) {
    if (r.due_ns <= t && r.done_ns > t) ++n;
  }
  return n;
}

Window Collect(const std::vector<RequestRecord>& records, uint64_t begin,
               uint64_t end) {
  Window w;
  w.begin = begin;
  w.end = end;
  for (const RequestRecord& r : records) {
    if (r.ok && r.done_ns >= begin && r.done_ns < end) ++w.completed;
    if (r.due_ns < begin || r.due_ns >= end) continue;
    ++w.attempted;
    w.lag_us.push_back(Us(r.sent_ns - r.due_ns));
    if (!r.ok) {
      ++w.failed;
      w.latency_us.push_back(kRefusedLatencyUs);
      continue;
    }
    ++w.answered;
    const double latency = Us(r.done_ns - r.due_ns);
    w.latency_us.push_back(latency);
    if (latency <= kSloUs) ++w.within_slo;
  }
  // A growing backlog: more requests waiting at the end than at the start,
  // beyond batching jitter (1% of the window, at least 64 requests).
  const size_t slack = std::max<size_t>(64, w.attempted / 100);
  w.backlog_grew = Outstanding(records, end) > Outstanding(records, begin) + slack;
  return w;
}

void EmitJson(const std::string& path, const std::string& workload,
              const Args& args, bool correct, uint64_t attempted,
              uint64_t failed, const std::vector<Metric>& metrics,
              const std::vector<Metric>& counts,
              const std::vector<std::pair<std::string, bool>>& checks) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Field("workload", workload);
  json.Field("seed", static_cast<uint64_t>(args.seed));
  json.Field("seconds", args.seconds);
  json.Field("trace", args.trace);
  json.Field("correct", correct);
  json.Field("attempted", attempted);
  json.Field("failed", failed);
  json.Key("checks");
  json.BeginObject();
  for (const auto& [name, ok] : checks) json.Field(name.c_str(), ok);
  json.EndObject();
  for (const auto* group : {&metrics, &counts}) {
    json.Key(group == &metrics ? "metrics" : "counts");
    json.BeginObject();
    for (const Metric& m : *group) {
      json.Key(m.name.c_str());
      json.BeginObject();
      json.Field("value", m.value);
      json.Field("unit", m.unit);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndObject();
  const Status status = io::WriteFileAtomic(path, json.str() + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
  }
}

/// Copies a snapshot's dense weights into `model` (the server does the same
/// on a worker's first batch of each generation).
void LoadDenseParams(RecModel* model, const ServingSnapshot& snapshot) {
  std::vector<Param> params;
  model->CollectDenseParams(&params);
  CAFE_CHECK(params.size() == snapshot.dense_params.size());
  for (size_t b = 0; b < params.size(); ++b) {
    CAFE_CHECK(params[b].size == snapshot.dense_params[b].size());
    std::memcpy(params[b].value, snapshot.dense_params[b].data(),
                params[b].size * sizeof(float));
  }
}

std::vector<float> PredictAll(RecModel* model, const SyntheticCtrDataset& data,
                              size_t begin, size_t count) {
  std::vector<float> all;
  all.reserve(count);
  std::vector<float> logits;
  for (size_t at = begin; at < begin + count; at += kParitySamples) {
    const size_t n = std::min(kParitySamples, begin + count - at);
    model->Predict(data.GetBatch(at, n), &logits);
    all.insert(all.end(), logits.begin(), logits.end());
  }
  return all;
}

/// The moment the replica started serving a generation.
struct Served {
  uint64_t generation, train_step, ns;
};

/// What the measured phase leaves for the checks and the metrics.
struct Phase {
  uint64_t start_ns = 0, train_end_ns = 0, end_ns = 0;
  uint64_t warm_steps = 0, last_step = 0;
  size_t steps = 0;
  double loss_sum = 0.0;
  std::vector<double> window_rates;    // samples/s per 32-step window
  std::vector<uint64_t> step_end_ns;   // by step; 0 = before the phase
  std::vector<uint64_t> cut_return_ns; // by generation; 0 = not cut in it
  std::vector<Served> served;
  std::vector<RequestRecord> records;
  std::shared_ptr<const ServingSnapshot> last;  // the source's final cut
  Registry reg_begin, reg_end;
  CafeEmbedding::PathStats paths_begin, paths_end;
  uint64_t migrations_begin = 0, migrations_end = 0;
  uint64_t replica_retired_begin = 0;
  double cpu_s = 0.0;  // process CPU seconds over the phase, all threads

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
  double train_seconds() const {
    return static_cast<double>(train_end_ns - start_ns) / 1e9;
  }
};

std::vector<uint64_t> Load(const std::vector<std::atomic<uint64_t>>& values) {
  std::vector<uint64_t> loaded;
  loaded.reserve(values.size());
  for (const auto& v : values) loaded.push_back(v.load());
  return loaded;
}

/// Serving warm-up, then the measured phase: `steps` training steps with the
/// rollout thread cutting, the replica applying and the open-loop load
/// running, ending when the replica serves the final generation.
StatusOr<Phase> RunPhase(Loop* loop, const Workload& w, const Args& args,
                         double warmup_s) {
  const SyntheticCtrDataset& data = *loop->data;
  auto* cafe_store = dynamic_cast<CafeEmbedding*>(loop->live_store.get());
  CAFE_CHECK(cafe_store != nullptr);
  Phase phase;
  phase.steps = std::max<size_t>(
      1, static_cast<size_t>(std::llround(w.steps_per_s * args.seconds)));
  phase.warm_steps = loop->step;
  phase.last_step = phase.warm_steps + phase.steps;
  std::vector<std::atomic<uint64_t>> step_end_ns(phase.last_step + 1);
  std::vector<std::atomic<uint64_t>> cut_return_ns(phase.last_step + 8);

  // Freshness: the load thread never sleeps, so it also stamps the moment
  // each generation starts serving at the replica (one atomic load per idle
  // turn), with no observer thread whose own wake-up delay would count.
  std::vector<Served> served;  // load-thread-owned until load.Stop()
  std::atomic<uint64_t> seen_generation{loop->replica->generation()};
  SwappableStore* replica_store = loop->replica->swappable();
  auto stamp_generation = [&served, &seen_generation, &step_end_ns,
                           replica_store](uint64_t now) {
    if (replica_store->generation() ==
        seen_generation.load(std::memory_order_relaxed)) {
      return;
    }
    const auto snapshot = replica_store->Acquire();
    served.push_back({snapshot->generation, snapshot->train_step, now});
    const uint64_t step_end = snapshot->train_step < step_end_ns.size()
                                  ? step_end_ns[snapshot->train_step].load()
                                  : 0;
    RecordSpan({"replica.serve", NextLeafId(),
                SpanId(SpanKind::kStep, snapshot->train_step),
                step_end > 0 && step_end < now ? step_end : now, now, 0, 0});
    seen_generation.store(snapshot->generation, std::memory_order_release);
  };

  // Open-loop traffic: warm-up at the reference rate, then the workload's
  // rate (or ladder) over the measured phase.
  const double ladder_step_s =
      args.seconds / static_cast<double>(w.rates.size());
  auto rate = [&w, warmup_s, ladder_step_s](double t) {
    if (t < warmup_s) return w.rates[kReferenceRung];
    const size_t k = static_cast<size_t>((t - warmup_s) / ladder_step_s);
    return w.rates[std::min(k, w.rates.size() - 1)];
  };
  const size_t test_begin = data.train_size();
  InferenceServer* server = loop->server.get();
  OpenLoopLoad load(
      [server, &data](uint64_t, size_t sample) {
        return server->Submit(data.GetBatch(sample, kRequestSize));
      },
      rate, args.seed ^ 0x6c6f616467656eull, test_begin,
      data.num_samples() - test_begin - kRequestSize + 1, stamp_generation);
  const uint64_t origin = NowNs();
  load.Start(origin);
  phase.start_ns = origin + static_cast<uint64_t>(warmup_s * 1e9);
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(phase.start_ns)));

  phase.reg_begin = Registry::Now();
  phase.paths_begin = cafe_store->lookup_stats();
  phase.migrations_begin = cafe_store->migrations();
  phase.replica_retired_begin = loop->replica->stats().retired_buffers;
  const double cpu_begin_s = ProcessCpuSeconds();

  loop->manager->BeginTraining();
  std::atomic<bool> training_done{false};
  std::shared_ptr<const ServingSnapshot> last;  // rollout-owned until joined
  Status rollout_status;
  auto cut = [loop, &cut_return_ns]()
      -> StatusOr<std::shared_ptr<const ServingSnapshot>> {
    const uint64_t begin = NowNs();
    auto snapshot = loop->manager->Cut();
    const uint64_t end = NowNs();
    if (!snapshot.ok()) return snapshot.status();
    const uint64_t g = (*snapshot)->generation;
    if (g < cut_return_ns.size()) cut_return_ns[g].store(end);
    RecordSpan({"snapshot.cut", SpanId(SpanKind::kGeneration, g),
                SpanId(SpanKind::kStep, (*snapshot)->train_step), begin, end,
                0, 0});
    return snapshot;
  };
  std::thread rollout([&] {
    while (!training_done.load(std::memory_order_acquire)) {
      auto snapshot = cut();
      if (!snapshot.ok()) {
        rollout_status = snapshot.status();
        return;
      }
      last = std::move(snapshot).value();
    }
  });

  uint64_t window_start = phase.start_ns;
  for (size_t i = 0; i < phase.steps; ++i) {
    if (w.paced) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(
              phase.start_ns +
              static_cast<uint64_t>(i * 1e9 / w.steps_per_s))));
    }
    phase.loss_sum += loop->Step();
    step_end_ns[loop->step].store(NowNs());
    loop->Boundary();
    if ((i + 1) % kRateWindowSteps == 0) {
      const uint64_t now = NowNs();
      phase.window_rates.push_back(
          static_cast<double>(kRateWindowSteps * w.batch) * 1e9 /
          static_cast<double>(now - window_start));
      window_start = now;
    }
  }
  phase.train_end_ns = NowNs();
  // The done flag must be visible before FinishTraining wakes a cutter
  // blocked in Cut(), or the rollout thread keeps taking idle cuts.
  training_done.store(true, std::memory_order_release);
  loop->manager->FinishTraining(phase.last_step);
  rollout.join();
  Status status = rollout_status;
  if (status.ok() && (last == nullptr || last->train_step < phase.last_step)) {
    auto tail = cut();  // trainer idle: a direct copy of the final state
    if (tail.ok()) {
      last = std::move(tail).value();
    } else {
      status = tail.status();
    }
  }
  if (status.ok()) {
    ScopedSpan span("replica.wait_final");
    status = loop->replica->WaitForGeneration(last->generation, kReplicaWaitUs);
  }
  phase.end_ns = NowNs();
  phase.cpu_s = ProcessCpuSeconds() - cpu_begin_s;
  // Let the load thread stamp the final generation before it stops.
  while (status.ok() &&
         seen_generation.load(std::memory_order_acquire) < last->generation &&
         NowNs() < phase.end_ns + 1'000'000'000) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  phase.reg_end = Registry::Now();
  phase.paths_end = cafe_store->lookup_stats();
  phase.migrations_end = cafe_store->migrations();
  load.Stop();
  if (!status.ok()) return status;
  phase.step_end_ns = Load(step_end_ns);
  phase.cut_return_ns = Load(cut_return_ns);
  phase.served = std::move(served);
  phase.records = load.records();
  phase.last = std::move(last);
  return phase;
}

/// The replica and server checks of every run (RunWorkload adds the
/// generator's lateness; traced == plain is run.sh's). Also computes
/// test_auc, from the same replica-served logits.
std::vector<std::pair<std::string, bool>> RunChecks(Loop* loop,
                                                    const Phase& phase,
                                                    uint64_t seed,
                                                    double* test_auc) {
  const SyntheticCtrDataset& data = *loop->data;
  const ServingSnapshot& last = *phase.last;
  std::vector<std::pair<std::string, bool>> checks;
  auto replica_snapshot = loop->replica->swappable()->Acquire();
  checks.emplace_back("final_generation_serving",
                      last.train_step == phase.last_step &&
                          loop->replica->generation() == last.generation &&
                          replica_snapshot->generation == last.generation &&
                          replica_snapshot->train_step == phase.last_step);

  Rng rng(seed ^ 0x70726f6265ull);
  const uint64_t total = loop->context.embedding.total_features;
  std::vector<uint64_t> ids(kProbeIds);
  for (uint64_t& id : ids) id = rng.Uniform(total);
  std::vector<float> from_replica(kProbeIds * kDim);
  std::vector<float> from_source(kProbeIds * kDim);
  loop->replica->swappable()->LookupBatchConst(ids.data(), ids.size(),
                                               from_replica.data(), kDim);
  last.store->LookupBatchConst(ids.data(), ids.size(), from_source.data(), kDim);
  checks.emplace_back("replica_rows_equal_source",
                      std::memcmp(from_replica.data(), from_source.data(),
                                  from_replica.size() * sizeof(float)) == 0);

  auto checker =
      MakeModel("dlrm", loop->model_config, loop->replica->swappable());
  CAFE_CHECK(checker.ok()) << checker.status().ToString();
  LoadDenseParams(checker->get(), *replica_snapshot);
  const size_t test_begin = data.train_size();
  const size_t test_size = data.num_samples() - test_begin;
  const size_t parity = std::min(kParitySamples, test_size);
  const std::vector<float> served_logits =
      PredictAll(checker->get(), data, test_begin, test_size);
  const std::vector<float> live_logits =
      PredictAll(loop->live_model.get(), data, test_begin, parity);
  checks.emplace_back("replica_logits_equal_live",
                      std::memcmp(served_logits.data(), live_logits.data(),
                                  parity * sizeof(float)) == 0);
  const std::vector<float> test_labels(data.labels().begin() + test_begin,
                                       data.labels().end());
  *test_auc = ComputeAuc(served_logits, test_labels);

  const InferenceServer::Stats server_stats = loop->server->stats();
  bool logits_ok = true;
  for (const RequestRecord& r : phase.records) {
    if (r.ok && r.logits != kRequestSize) logits_ok = false;
  }
  checks.emplace_back(
      "requests_accounted",
      logits_ok && server_stats.requests + server_stats.rejected ==
                       phase.records.size());
  return checks;
}

/// Serving windows: one per ladder rung, or the phase cut into sevenths.
std::vector<Window> LatencyWindows(const Workload& w, const Args& args,
                                   const Phase& phase) {
  std::vector<Window> windows;
  if (w.rates.size() > 1) {
    const uint64_t step_ns = static_cast<uint64_t>(
        args.seconds / static_cast<double>(w.rates.size()) * 1e9);
    for (size_t k = 0; k < w.rates.size(); ++k) {
      windows.push_back(Collect(phase.records, phase.start_ns + k * step_ns,
                                phase.start_ns + (k + 1) * step_ns));
      windows.back().rate = w.rates[k];
    }
  } else {
    const uint64_t span_ns = (phase.end_ns - phase.start_ns) / kLatencyWindows;
    for (size_t k = 0; k < kLatencyWindows; ++k) {
      windows.push_back(Collect(phase.records, phase.start_ns + k * span_ns,
                                phase.start_ns + (k + 1) * span_ns));
    }
  }
  return windows;
}

/// The latency-limited capacity: the highest offered rate whose
/// p99 meets the limit without failures or a growing backlog.
double ServeRpsAtSlo(const Workload& w, const std::vector<Window>& windows,
                     const Window& all, double phase_s) {
  if (w.rates.size() > 1) {
    std::vector<LadderStep> steps;
    for (const Window& step : windows) {
      steps.push_back({step.rate, Percentile(step.latency_us, 0.99),
                       step.failed, step.backlog_grew});
    }
    return RpsAtSlo(steps, kSloUs);
  }
  const bool meets = Percentile(all.latency_us, 0.99) <= kSloUs &&
                     all.failed == 0 && !all.backlog_grew;
  return meets ? static_cast<double>(all.answered) / phase_s : 0.0;
}

double SetupMedian(const std::vector<SetupTimes>& setups,
                   double SetupTimes::*field) {
  std::vector<double> values;
  for (const SetupTimes& t : setups) values.push_back(t.*field);
  return Median(values);
}

/// Per-layer metrics of a traced run, from the spans and registry deltas of
/// the measured phase.
std::vector<Metric> PerLayerMetrics(Loop* loop, const Workload& w,
                                    const Args& args, const Phase& phase,
                                    const std::vector<Span>& spans,
                                    const std::vector<SetupTimes>& setups,
                                    const std::vector<Window>& windows,
                                    const Window& reference, const Window& all) {
  auto select = [&](const char* name) {
    return Select(spans, name, phase.start_ns, phase.end_ns);
  };
  auto hist = [&](const char* name) {
    return HistogramDelta(phase.reg_end.Hist(name), phase.reg_begin.Hist(name));
  };
  auto counter = [&](const char* name) {
    return static_cast<double>(phase.reg_end.Counter(name) -
                               phase.reg_begin.Counter(name));
  };
  const double n_steps = static_cast<double>(phase.steps);
  const double phase_s = phase.seconds();
  const SpanSet step = select("train.step");
  const SpanSet boundary = select("train.boundary");
  const SpanSet gather = select("train.gather");
  const SpanSet scatter = select("train.scatter");
  const SpanSet tick = select("train.tick");
  const SpanSet cuts = select("snapshot.cut");
  const SpanSet predict = select("serve.predict");
  const SpanSet serve_gather = select("serve.gather");
  const obs::Histogram::Snapshot request_us = hist("serve.request_us");
  const double generations = counter("snapshot.cuts_total");
  const CafeEmbedding::PathStats& p0 = phase.paths_begin;
  const CafeEmbedding::PathStats& p1 = phase.paths_end;
  const uint64_t lookups =
      (p1.hot - p0.hot) + (p1.medium - p0.medium) + (p1.cold - p0.cold);
  std::vector<double> lag_ms;
  for (const Served& s : phase.served) {
    if (s.ns < phase.start_ns || s.generation >= phase.cut_return_ns.size()) {
      continue;
    }
    const uint64_t returned = phase.cut_return_ns[s.generation];
    if (returned == 0) continue;
    lag_ms.push_back(
        s.ns > returned ? static_cast<double>(s.ns - returned) / 1e6 : 0.0);
  }
  const double predicts = static_cast<double>(predict.us.size());
  const size_t workers = args.workers > 0 ? args.workers : w.workers;
  std::vector<Metric> layer = {
      {"train.step_us.p50", Percentile(step.us, 0.5), "us"},
      {"train.step_us.p99", Percentile(step.us, 0.99), "us"},
      {"train.samples_per_s_mean", n_steps * w.batch / phase.train_seconds(),
       "samples/s"},
      {"train.boundary_us.p50", Percentile(boundary.us, 0.5), "us"},
      {"train.boundary_us.max", Percentile(boundary.us, 1.0), "us"},
      {"nn.dense_us_per_step",
       (step.total_us - gather.total_us - scatter.total_us - tick.total_us) /
           n_steps,
       "us"},
      {"embed.gather_us_per_step", gather.total_us / n_steps, "us"},
      {"embed.scatter_us_per_step", scatter.total_us / n_steps, "us"},
      {"embed.tick_us_per_step", tick.total_us / n_steps, "us"},
      {"embed.gather_ns_per_id", Ratio(gather.total_us * 1e3, gather.items),
       "ns"},
      {"embed.scatter_ns_per_id", Ratio(scatter.total_us * 1e3, scatter.items),
       "ns"},
      {"embed.unique_frac",
       Ratio(counter("store.cafe.backward_unique_total"),
             counter("store.cafe.backward_ids_total")),
       "fraction"},
      {"core.cafe.accumulate_us.p50",
       hist("train.backward.accumulate_us").Quantile(0.5), "us"},
      {"core.cafe.decide_us.p50", hist("train.backward.decide_us").Quantile(0.5),
       "us"},
      {"core.cafe.scatter_us.p50",
       hist("train.backward.scatter_us").Quantile(0.5), "us"},
      {"common.shard_imbalance", phase.reg_end.Gauge("train.shard_imbalance"),
       "ratio"},
      {"core.cafe.hot_lookup_frac",
       Ratio(static_cast<double>(p1.hot - p0.hot), static_cast<double>(lookups)),
       "fraction"},
      {"core.cafe.migrations_per_kstep",
       static_cast<double>(phase.migrations_end - phase.migrations_begin) *
           1000.0 / n_steps,
       "count"},
      {"snapshot.cut_us.p50", Percentile(cuts.us, 0.5), "us"},
      {"snapshot.cut_us.p99", Percentile(cuts.us, 0.99), "us"},
      {"snapshot.copy_us.p50", hist("snapshot.copy_us").Quantile(0.5), "us"},
      {"snapshot.apply_us.p50", hist("snapshot.apply_us").Quantile(0.5), "us"},
      {"snapshot.publish_us.p50", hist("snapshot.publish_us").Quantile(0.5),
       "us"},
      {"snapshot.copy_bytes_mean",
       Ratio(counter("snapshot.copy_bytes_total"), generations), "bytes"},
      {"snapshot.generations", generations, "count"},
      {"snapshot.retired_buffers", counter("snapshot.retired_buffers_total"),
       "count"},
      {"replicate.lag_ms.p50", Percentile(lag_ms, 0.5), "ms"},
      {"replicate.lag_ms.p99", Percentile(lag_ms, 0.99), "ms"},
      {"replicate.bytes_per_generation",
       Ratio(counter("replicate.source.bytes_sent_total"), generations),
       "bytes"},
      {"replicate.resyncs", counter("replicate.source.base_resyncs_total"),
       "count"},
      {"replicate.queue_overflows",
       counter("replicate.source.queue_overflow_total"), "count"},
      {"replicate.retired_buffers",
       static_cast<double>(loop->replica->stats().retired_buffers -
                           phase.replica_retired_begin),
       "count"},
      {"serve.server_us.p50", request_us.Quantile(0.5), "us"},
      {"serve.server_us.p99", request_us.Quantile(0.99), "us"},
      {"serve.predict_us.p50", Percentile(predict.us, 0.5), "us"},
      {"serve.predict_us.p99", Percentile(predict.us, 0.99), "us"},
      {"serve.gather_us_per_batch", Ratio(serve_gather.total_us, predicts),
       "us"},
      {"serve.mlp_us_per_batch",
       Ratio(predict.total_us - serve_gather.total_us, predicts), "us"},
      {"serve.queue_wait_us_mean",
       Ratio(request_us.sum, static_cast<double>(request_us.count)) -
           Ratio(predict.total_us, predicts),
       "us"},
      {"serve.batch_samples_mean",
       Ratio(counter("serve.samples_total"), counter("serve.batches_total")),
       "samples"},
      {"serve.worker_busy_frac",
       predict.total_us / (static_cast<double>(workers) * phase_s * 1e6),
       "fraction"},
      {"serve.p99_us", Percentile(reference.latency_us, 0.99), "us"},
      {"serve.rps_at_slo", ServeRpsAtSlo(w, windows, all, phase_s), "req/s"},
      {"serve.fail_frac", Ratio(all.failed, all.attempted), "fraction"},
      {"loadgen.lag_us.p99", Percentile(all.lag_us, 0.99), "us"},
      {"loadgen.sent", static_cast<double>(all.attempted), "count"},
      {"setup.dataset_s", SetupMedian(setups, &SetupTimes::dataset_s), "s"},
      {"setup.build_s", SetupMedian(setups, &SetupTimes::build_s), "s"},
      {"setup.warmup_s", SetupMedian(setups, &SetupTimes::warmup_s), "s"},
      {"setup.base_cut_s", SetupMedian(setups, &SetupTimes::base_cut_s), "s"},
      {"setup.replica_join_s", SetupMedian(setups, &SetupTimes::replica_join_s),
       "s"},
  };
  for (size_t k = 0; k < windows.size(); ++k) {
    layer.push_back({"serve.p99_us.step" + std::to_string(k + 1),
                     Percentile(windows[k].latency_us, 0.99), "us"});
  }
  return layer;
}

int RunWorkload(const Workload& w, const Args& args) {
  EnableTracing(args.trace);

  // Set-up, several times: setup_s is the median, so one slow set-up on a
  // shared host does not move it. Each earlier loop is torn down before the
  // next is built, so memory holds one loop at a time.
  std::vector<SetupTimes> setups;
  double setup_total_s = 0.0;
  std::unique_ptr<Loop> loop;
  uint64_t trace_origin = 0;
  while (setups.empty() ||
         (!args.smoke && (setups.size() < kMinSetups ||
                          (setups.size() < kMaxSetups &&
                           setup_total_s < kSetupBudgetS)))) {
    loop.reset();
    trace_origin = NowNs();
    SetupTimes times;
    auto made = SetUp(w, args, &times);
    if (!made.ok()) {
      std::fprintf(stderr, "%s: set-up failed: %s\n", w.name.c_str(),
                   made.status().ToString().c_str());
      return 1;
    }
    loop = std::move(made).value();
    setups.push_back(times);
    setup_total_s += times.total();
  }

  auto ran = RunPhase(loop.get(), w, args, args.smoke ? 0.1 : 1.0);
  if (!ran.ok()) {
    std::fprintf(stderr, "%s: online loop failed: %s\n", w.name.c_str(),
                 ran.status().ToString().c_str());
    return 1;
  }
  const Phase& phase = *ran;
  const std::vector<Window> windows = LatencyWindows(w, args, phase);
  const Window all = Collect(phase.records, phase.start_ns, phase.end_ns);
  const double lag_p99_us = Percentile(all.lag_us, 0.99);
  double test_auc = 0.0;
  auto checks = RunChecks(loop.get(), phase, args.seed, &test_auc);
  checks.emplace_back("generator_on_time", lag_p99_us <= kMaxLagP99Us);
  bool correct = true;
  for (const auto& check : checks) correct &= check.second;

  // ---- End-to-end metrics --------------------------------------------------
  // The serve_* latency metrics read one offered rate: the workload's rate,
  // or the ladder's reference rung.
  const bool ladder = w.rates.size() > 1;
  const Window& reference = ladder ? windows[kReferenceRung] : all;
  // Throughput: responses observed per second at the highest offered rate.
  // The ladder's top rung offers more than the server can answer, so there
  // this is the server's capacity; a single-rate workload reports its rate.
  const double throughput =
      (ladder ? windows.back() : all).CompletedPerSecond();
  std::vector<double> freshness_ms;
  for (const Served& s : phase.served) {
    if (s.train_step <= phase.warm_steps || s.train_step > phase.last_step) {
      continue;
    }
    const uint64_t step_end = phase.step_end_ns[s.train_step];
    if (step_end > 0 && s.ns >= step_end) {
      freshness_ms.push_back(static_cast<double>(s.ns - step_end) / 1e6);
    }
  }
  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total());
  const double train_rate =
      phase.window_rates.empty()
          ? static_cast<double>(phase.steps * w.batch) / phase.train_seconds()
          : Median(phase.window_rates);
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_totals), "s"},
      {"train_samples_per_s", train_rate, "samples/s"},
      {"freshness_p50_ms", Median(freshness_ms), "ms"},
      {"serve_p50_us", Percentile(reference.latency_us, 0.5), "us"},
      {"serve_slo_frac", Ratio(reference.within_slo, reference.attempted),
       "fraction"},
      {"serve_throughput_rps", throughput, "req/s"},
      {"test_auc", test_auc, "1"},
      {"avg_train_loss", phase.loss_sum / static_cast<double>(phase.steps),
       "nats"},
      {"store_mb", static_cast<double>(loop->live_store->MemoryBytes()) / 1e6,
       "MB"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6,
       "MB"},
  };
  const std::vector<Metric> counts = {
      {"train_steps", static_cast<double>(phase.steps), "count"},
      {"train_windows", static_cast<double>(phase.window_rates.size()), "count"},
      {"freshness_samples", static_cast<double>(freshness_ms.size()), "count"},
      {"serve_samples", static_cast<double>(reference.attempted), "count"},
      {"serve_supported_quantile", SupportedQuantile(reference.attempted),
       "quantile"},
      {"setups", static_cast<double>(setups.size()), "count"},
      {"phase_s", phase.seconds(), "s"},
      {"loadgen_lag_us_p99", lag_p99_us, "us"},
      // Busy threads, measured: CPU time of the whole process (the spinning
      // load thread included) over the phase's wall time.
      {"phase_cpu_cores", phase.cpu_s / phase.seconds(), "cores"},
  };

  loop->server->Shutdown();  // joins the workers that recorded serve spans
  if (args.trace) {
    const std::vector<Span> spans = CollectSpans();
    const std::vector<Metric> layer = PerLayerMetrics(
        loop.get(), w, args, phase, spans, setups, windows, reference, all);
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    const std::string spans_path = args.out + "/" + w.name + ".spans.json";
    const Status written = WriteChromeTrace(spans_path, spans, trace_origin);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", spans_path.c_str(),
                   written.ToString().c_str());
    }
  }

  for (const std::vector<Metric>& group :
       {std::cref(metrics), std::cref(counts)}) {
    for (const Metric& m : group) {
      std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& [name, ok] : checks) {
    std::printf("%s check.%s %s\n", w.name.c_str(), name.c_str(),
                ok ? "pass" : "FAIL");
  }
  std::fflush(stdout);
  EmitJson(args.out + "/" + w.name + (args.trace ? ".trace" : "") + ".json",
           w.name, args, correct, all.attempted, all.failed, metrics, counts,
           checks);
  return correct ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed <u64>] [--seconds <s>] "
               "[--trace] [--smoke] [--out <dir>] [--backward-threads <n>] "
               "[--workers <n>]\n       %s --selftest | --fingerprint\n",
               argv0, argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      std::printf("stats:\n");
      int failures = RunStatsSelfTest();
      std::printf("loadgen:\n");
      failures += RunLoadgenSelfTest();
      std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL",
                  failures);
      return failures == 0 ? 0 : 1;
    } else if (flag == "--fingerprint") {
      std::printf("{\"simd\": \"%s\", \"compiler\": \"gcc %s\", "
#ifdef NDEBUG
                  "\"build\": \"Release\"}\n",
#else
                  "\"build\": \"Debug\"}\n",
#endif
                  simd::TierName(simd::DetectedTier()), __VERSION__);
      return 0;
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--out" && has_value) {
      args.out = argv[++i];
    } else if (flag == "--backward-threads" && has_value) {
      args.backward_threads = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (flag == "--workers" && has_value) {
      args.workers = static_cast<size_t>(std::atoi(argv[++i]));
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr || args.seconds <= 0.0) return Usage(argv[0]);
  std::error_code error;
  std::filesystem::create_directories(args.out, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", args.out.c_str());
    return 2;
  }
  return RunWorkload(*workload, args);
}

}  // namespace
}  // namespace bench
}  // namespace cafe

int main(int argc, char** argv) { return cafe::bench::Main(argc, argv); }
