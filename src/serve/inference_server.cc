#include "serve/inference_server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace cafe {
namespace {

/// Overwrites `model`'s dense parameter blocks with the snapshot's captured
/// weights. A snapshot cut without a model carries no blocks and leaves the
/// replica's weights alone (store-only rollout).
void LoadSnapshotDenseParams(RecModel* model, const ServingSnapshot& snap) {
  if (snap.dense_params.empty()) return;
  std::vector<Param> params;
  model->CollectDenseParams(&params);
  CAFE_CHECK(params.size() == snap.dense_params.size())
      << "snapshot dense-parameter block count does not match the replica";
  for (size_t b = 0; b < params.size(); ++b) {
    CAFE_CHECK(params[b].size == snap.dense_params[b].size())
        << "snapshot dense-parameter block " << b
        << " shape does not match the replica";
    std::memcpy(params[b].value, snap.dense_params[b].data(),
                params[b].size * sizeof(float));
  }
}

}  // namespace

InferenceServer::InferenceServer(const InferenceServerOptions& options)
    : options_(options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs_requests_ = registry.GetCounter("serve.requests_total");
  obs_samples_ = registry.GetCounter("serve.samples_total");
  obs_batches_ = registry.GetCounter("serve.batches_total");
  obs_rejected_ = registry.GetCounter("serve.rejected_total");
  obs_swaps_ = registry.GetCounter("serve.swaps_total");
  obs_queue_depth_ = registry.GetGauge("serve.queue_depth");
  obs_generation_ = registry.GetGauge("serve.generation");
  obs_snapshot_age_us_ = registry.GetGauge("serve.snapshot_age_us");
  obs_shed_rate_ = registry.GetGauge("serve.shed_rate");
  obs_request_us_ = registry.GetHistogram("serve.request_us",
                                          obs::DefaultTimeBucketsUs());
}

StatusOr<std::unique_ptr<InferenceServer>> InferenceServer::Start(
    const InferenceServerOptions& options, const ModelFactory& factory,
    SwappableStore* swap_store) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("inference server needs >= 1 worker");
  }
  if (options.max_batch == 0) {
    return Status::InvalidArgument("inference server needs max_batch >= 1");
  }
  if (options.num_fields == 0) {
    return Status::InvalidArgument("inference server needs num_fields");
  }
  std::unique_ptr<InferenceServer> server(new InferenceServer(options));
  server->swap_store_ = swap_store;
  server->models_.reserve(options.num_workers);
  for (size_t i = 0; i < options.num_workers; ++i) {
    auto model = factory(i);
    if (!model.ok()) return model.status();
    if (*model == nullptr) {
      return Status::InvalidArgument("model factory returned null");
    }
    server->models_.push_back(std::move(model).value());
  }
  // Sentinel: every worker loads the pinned snapshot's dense weights on its
  // first micro-batch (generations are 1-based).
  server->worker_generations_.assign(options.num_workers, 0);
  server->worker_latency_.reserve(options.num_workers);
  for (size_t i = 0; i < options.num_workers; ++i) {
    server->worker_latency_.push_back(std::make_unique<LatencyRecorder>());
  }
  server->workers_.reserve(options.num_workers);
  for (size_t i = 0; i < options.num_workers; ++i) {
    server->workers_.emplace_back(
        [raw = server.get(), i]() { raw->WorkerLoop(i); });
  }
  return server;
}

InferenceServer::~InferenceServer() { Shutdown(); }

void InferenceServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // The gauge mirrors update on a sampled cadence while serving; sync them
  // exactly now that the queue is drained so a post-run registry dump
  // reflects the final state.
  if (obs_queue_depth_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    obs_queue_depth_->Set(static_cast<double>(queued_samples_));
    const uint64_t rejected = rejected_.load(std::memory_order_relaxed);
    const uint64_t accepted = requests_.load(std::memory_order_relaxed);
    if (rejected + accepted > 0) {
      obs_shed_rate_->Set(static_cast<double>(rejected) /
                          static_cast<double>(rejected + accepted));
    }
    const uint64_t installed =
        snapshot_install_us_.load(std::memory_order_relaxed);
    if (installed != 0) {
      obs_snapshot_age_us_->Set(
          static_cast<double>(obs::NowMicros() - installed));
    }
  }
}

StatusOr<std::future<std::vector<float>>> InferenceServer::Submit(
    const Batch& batch) {
  CAFE_CHECK(batch.num_fields == options_.num_fields)
      << "request field count does not match the serving config";
  CAFE_CHECK(batch.num_numerical == options_.num_numerical)
      << "request numerical count does not match the serving config";
  CAFE_CHECK(batch.batch_size > 0) << "empty prediction request";

  Pending pending;
  pending.batch_size = batch.batch_size;
  pending.categorical.assign(
      batch.categorical, batch.categorical + batch.batch_size * batch.num_fields);
  if (batch.num_numerical > 0) {
    pending.numerical.assign(
        batch.numerical, batch.numerical + batch.batch_size * batch.num_numerical);
  }
  pending.enqueue = Clock::now();
  std::future<std::vector<float>> future = pending.promise.get_future();

  // A worker needs waking only when this request gives it something new to
  // do: the queue was empty (idle workers wait for work), or the queue just
  // filled a batch (a worker in its batching window waits for max_batch).
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return Status::FailedPrecondition(
          "Submit on a stopped inference server");
    }
    // Admission control: fast-fail instead of queueing past the cap. An
    // oversized request against an EMPTY queue is admitted — it can never
    // fit under the cap and would otherwise starve forever.
    if (options_.max_queue_samples > 0 && !queue_.empty() &&
        queued_samples_ + pending.batch_size > options_.max_queue_samples) {
      const uint64_t rejected =
          rejected_.fetch_add(1, std::memory_order_relaxed) + 1;
      obs_rejected_->Add(1);
      const uint64_t accepted = requests_.load(std::memory_order_relaxed);
      obs_shed_rate_->Set(static_cast<double>(rejected) /
                          static_cast<double>(rejected + accepted));
      return Status::ResourceExhausted(
          "inference queue full (" + std::to_string(queued_samples_) + " of " +
          std::to_string(options_.max_queue_samples) +
          " samples queued): backpressure");
    }
    wake = queue_.empty() || (queued_samples_ < options_.max_batch &&
                              queued_samples_ + pending.batch_size >=
                                  options_.max_batch);
    queued_samples_ += pending.batch_size;
    peak_queued_samples_ = std::max(peak_queued_samples_, queued_samples_);
    // Sampled mirror: the gauge is only read at scrape time, so a
    // few-requests-stale depth is fine — an unconditional Set here is a
    // contended cache-line write on every submit from every client thread.
    if ((++queue_depth_updates_ & 0xF) == 0) {
      obs_queue_depth_->Set(static_cast<double>(queued_samples_));
    }
    queue_.push_back(std::move(pending));
  }
  if (wake) cv_.notify_one();
  return future;
}

uint64_t InferenceServer::InstallSnapshot(
    std::shared_ptr<const ServingSnapshot> snapshot) {
  CAFE_CHECK(swap_store_ != nullptr)
      << "InstallSnapshot on a server started without a swap store";
  const uint64_t generation = swap_store_->Install(std::move(snapshot));
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);
  snapshot_install_us_.store(obs::NowMicros(), std::memory_order_relaxed);
  obs_swaps_->Add(1);
  obs_generation_->Set(static_cast<double>(generation));
  obs_snapshot_age_us_->Set(0.0);
  return generation;
}

void InferenceServer::WorkerLoop(size_t worker_index) {
  RecModel* model = models_[worker_index].get();
  std::vector<Pending> claimed;
  for (;;) {
    bool requests_left = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and fully drained

      // Micro-batch window: hold until the batch fills or the oldest
      // request times out. Shutdown flushes immediately.
      const Clock::time_point deadline =
          queue_.front().enqueue +
          std::chrono::microseconds(options_.max_wait_us);
      cv_.wait_until(lock, deadline, [this] {
        return stop_ || queued_samples_ >= options_.max_batch ||
               queue_.empty();
      });
      if (queue_.empty()) continue;  // another worker claimed everything

      claimed.clear();
      size_t total = 0;
      while (!queue_.empty()) {
        Pending& front = queue_.front();
        if (!claimed.empty() && total + front.batch_size > options_.max_batch) {
          break;
        }
        total += front.batch_size;
        queued_samples_ -= front.batch_size;
        claimed.push_back(std::move(front));
        queue_.pop_front();
      }
      if ((++queue_depth_updates_ & 0xF) == 0) {
        obs_queue_depth_->Set(static_cast<double>(queued_samples_));
      }
      requests_left = !queue_.empty();
    }
    // Requests past the claimed batch need a peer; an empty queue does not.
    if (requests_left) cv_.notify_one();
    Execute(worker_index, model, &claimed);
  }
}

void InferenceServer::Execute(size_t worker_index, RecModel* model,
                              std::vector<Pending>* claimed) {
  size_t total = 0;
  for (const Pending& p : *claimed) total += p.batch_size;

  // Assemble one contiguous micro-batch from the claimed requests. These
  // are worker-local buffers; the shared frozen store is only read.
  std::vector<uint32_t> categorical(total * options_.num_fields);
  std::vector<float> numerical(total * options_.num_numerical);
  size_t offset = 0;
  for (const Pending& p : *claimed) {
    std::memcpy(categorical.data() + offset * options_.num_fields,
                p.categorical.data(),
                p.categorical.size() * sizeof(uint32_t));
    if (options_.num_numerical > 0) {
      std::memcpy(numerical.data() + offset * options_.num_numerical,
                  p.numerical.data(), p.numerical.size() * sizeof(float));
    }
    offset += p.batch_size;
  }

  Batch batch;
  batch.batch_size = total;
  batch.num_fields = options_.num_fields;
  batch.num_numerical = options_.num_numerical;
  batch.categorical = categorical.data();
  batch.numerical = options_.num_numerical > 0 ? numerical.data() : nullptr;
  batch.labels = nullptr;  // prediction only

  std::vector<float> logits;
  uint64_t pinned_generation = 0;
  if (swap_store_ != nullptr) {
    // Hot reload pick-up point: pin the current snapshot for the WHOLE
    // micro-batch (no torn generations within a response), and refresh the
    // replica's dense weights if the generation moved since this worker's
    // last batch. Only this worker touches its replica and its slot.
    SwappableStore::PinScope pin(swap_store_);
    if (pin.generation() != worker_generations_[worker_index]) {
      LoadSnapshotDenseParams(model, pin.snapshot());
      worker_generations_[worker_index] = pin.generation();
    }
    pinned_generation = pin.generation();
    model->Predict(batch, &logits);
  } else {
    model->Predict(batch, &logits);
  }
  CAFE_CHECK(logits.size() == total) << "model returned a short logit vector";

  // Publish stats BEFORE completing any future: a client that returns from
  // future.get() must observe every counter of its own request.
  const Clock::time_point done = Clock::now();
  LatencyRecorder* recorder = worker_latency_[worker_index].get();
  for (const Pending& p : *claimed) {
    const double micros =
        std::chrono::duration<double, std::micro>(done - p.enqueue).count();
    recorder->Record(micros);
    obs_request_us_->Record(micros);
    samples_.fetch_add(p.batch_size, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t batch_seq =
      executed_batches_.fetch_add(1, std::memory_order_relaxed);
  // Counters are per-thread-sharded (cheap); the gauges below are single
  // shared atomics, so their mirrors are refreshed on a sampled cadence —
  // they are only read at scrape time and Shutdown() syncs them exactly.
  const bool refresh_gauges = (batch_seq & 0x7) == 0;
  obs_requests_->Add(claimed->size());
  obs_samples_->Add(total);
  obs_batches_->Add(1);
  if (swap_store_ != nullptr) {
    // Per-generation request counts, name-labeled. The handle is cached per
    // worker thread and refreshed only when the pinned generation moves, so
    // the steady-state cost is one pointer compare, not a registry lookup.
    struct GenerationHandle {
      uint64_t generation = ~0ULL;
      obs::Counter* counter = nullptr;
    };
    static thread_local GenerationHandle cached;
    if (cached.generation != pinned_generation) {
      cached.generation = pinned_generation;
      cached.counter = obs::MetricsRegistry::Global().GetCounter(
          "serve.generation_requests_total{generation=\"" +
          std::to_string(pinned_generation) + "\"}");
    }
    cached.counter->Add(claimed->size());
    const uint64_t installed =
        snapshot_install_us_.load(std::memory_order_relaxed);
    if (installed != 0 && refresh_gauges) {
      obs_snapshot_age_us_->Set(
          static_cast<double>(obs::NowMicros() - installed));
    }
  }
  if (refresh_gauges) {
    const uint64_t rejected = rejected_.load(std::memory_order_relaxed);
    const uint64_t accepted = requests_.load(std::memory_order_relaxed);
    if (rejected + accepted > 0) {
      obs_shed_rate_->Set(static_cast<double>(rejected) /
                          static_cast<double>(rejected + accepted));
    }
  }

  offset = 0;
  for (Pending& p : *claimed) {
    std::vector<float> result(logits.begin() + offset,
                              logits.begin() + offset + p.batch_size);
    offset += p.batch_size;
    p.promise.set_value(std::move(result));
  }
}

LatencySummary InferenceServer::latency_summary() const {
  LatencyRecorder merged;
  for (const auto& recorder : worker_latency_) merged.Merge(*recorder);
  return merged.Summary();
}

size_t InferenceServer::latency_count() const {
  size_t count = 0;
  for (const auto& recorder : worker_latency_) count += recorder->count();
  return count;
}

InferenceServer::Stats InferenceServer::stats() const {
  Stats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.samples = samples_.load(std::memory_order_relaxed);
  stats.executed_batches = executed_batches_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queued_samples_;
    stats.peak_queue_depth = peak_queued_samples_;
  }
  if (swap_store_ != nullptr) {
    stats.snapshot_generation = swap_store_->generation();
    stats.snapshot_swaps = snapshot_swaps_.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace cafe
