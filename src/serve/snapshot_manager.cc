#include "serve/snapshot_manager.h"

#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/frozen_store.h"

namespace cafe {
namespace {

/// Registry handles (snapshot.*), shared by every manager in the process;
/// the per-instance Stats struct stays authoritative for stats() — these
/// are additive mirrors for scrapes and the JSONL timeline.
struct SnapshotMetrics {
  obs::Counter* cuts;
  obs::Counter* delta_cuts;
  obs::Counter* retired_buffers;
  obs::Counter* copy_bytes;
  obs::Counter* apply_bytes;
  obs::Histogram* copy_us;
  obs::Histogram* apply_us;
  obs::Histogram* publish_us;
  obs::Gauge* generation;
};

SnapshotMetrics& Metrics() {
  static SnapshotMetrics* const metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    return new SnapshotMetrics{
        r.GetCounter("snapshot.cuts_total"),
        r.GetCounter("snapshot.delta_cuts_total"),
        r.GetCounter("snapshot.retired_buffers_total"),
        r.GetCounter("snapshot.copy_bytes_total"),
        r.GetCounter("snapshot.apply_bytes_total"),
        r.GetHistogram("snapshot.copy_us", obs::DefaultTimeBucketsUs()),
        r.GetHistogram("snapshot.apply_us", obs::DefaultTimeBucketsUs()),
        r.GetHistogram("snapshot.publish_us", obs::DefaultTimeBucketsUs()),
        r.GetGauge("snapshot.generation"),
    };
  }();
  return *metrics;
}

}  // namespace

SnapshotManager::SnapshotManager(EmbeddingStore* live_store,
                                 RecModel* live_model,
                                 FreshStoreFactory factory,
                                 const Options& options)
    : live_store_(live_store),
      live_model_(live_model),
      options_(options),
      publisher_(std::move(factory),
                 live_store != nullptr ? live_store->Name() : "",
                 options.reclaim_wait_us) {
  CAFE_CHECK(live_store_ != nullptr) << "snapshot manager needs a live store";
  CAFE_CHECK(!options_.incremental ||
             live_store_->SupportsIncrementalSnapshots())
      << "incremental cuts requested but store '" << live_store_->Name()
      << "' does not support SaveDelta/LoadDelta";
  CAFE_CHECK(!options_.capture_optimizer || live_model_ != nullptr)
      << "capture_optimizer requested without a live model";
}

SnapshotManager::SnapshotManager(EmbeddingStore* live_store,
                                 RecModel* live_model,
                                 FreshStoreFactory factory)
    : SnapshotManager(live_store, live_model, std::move(factory), Options()) {}

SnapshotManager::~SnapshotManager() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.incremental && base_cut_done_) {
    // Full reset (epochs + full-section flags), not just a stop: a fresh
    // manager created over the same live store must rebase from a clean
    // slate even when THIS manager died with a poisoned publish chain.
    (void)live_store_->EnableDirtyTracking(false);
  }
}

void SnapshotManager::CopyStateLocked(uint64_t step) {
  obs::TraceSpan span("snapshot.copy");
  WallTimer timer;
  io::Writer writer;
  if (options_.incremental && base_cut_done_) {
    pending_status_ = live_store_->SaveDelta(&writer);
    pending_is_delta_ = true;
  } else {
    pending_status_ = live_store_->SaveState(&writer);
    pending_is_delta_ = false;
    if (options_.incremental && pending_status_.ok()) {
      // Tracking switches on at the SAME boundary the base captures:
      // everything after this instant lands in the first delta.
      pending_status_ = live_store_->EnableDirtyTracking();
      base_cut_done_ = pending_status_.ok();
    }
  }
  pending_payload_ = writer.Release();
  pending_dense_.clear();
  pending_optimizer_.clear();
  pending_has_optimizer_ = false;
  pending_model_name_.clear();
  if (pending_status_.ok() && live_model_ != nullptr) {
    pending_model_name_ = live_model_->Name();
    std::vector<Param> params;
    live_model_->CollectDenseParams(&params);
    pending_dense_.reserve(params.size());
    for (const Param& p : params) {
      pending_dense_.emplace_back(p.value, p.value + p.size);
    }
    if (options_.capture_optimizer) {
      Optimizer* optimizer = live_model_->optimizer();
      if (optimizer != nullptr) {
        io::Writer optimizer_writer;
        pending_status_ = optimizer->SaveState(&optimizer_writer);
        pending_optimizer_ = optimizer_writer.Release();
        pending_has_optimizer_ = pending_status_.ok();
      }
    }
  }
  if (!pending_status_.ok() && options_.incremental && base_cut_done_) {
    // A capture step failed and the payload is about to be discarded with
    // the error — but it may have been the only record of flushed state: a
    // SaveDelta has already emptied the dirty sets, and a just-taken base
    // has already rebased tracking. Either way, staying "based" would make
    // the NEXT successful cut emit a delta missing this interval's rows
    // (or a delta with no base under it) — a silently divergent
    // generation. Roll the whole chain back to unbased; the next cut
    // retakes a full base at its own boundary.
    (void)live_store_->EnableDirtyTracking(false);
    base_cut_done_ = false;
  }
  pending_step_ = step;
  last_cut_step_ = step;
  copy_ready_ = true;
  const double copy_us = timer.ElapsedMicros();
  stats_.last_copy_us = copy_us;
  stats_.last_copy_bytes = pending_payload_.size();
  if (copy_us > stats_.max_copy_us) stats_.max_copy_us = copy_us;
  Metrics().copy_us->Record(copy_us);
  Metrics().copy_bytes->Add(pending_payload_.size());
}

void SnapshotManager::AtStepBoundary(uint64_t step) {
  // Fast path: one relaxed load per training step when nobody is cutting.
  if (!cut_requested_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  last_step_ = step;
  if (!cut_requested_.load(std::memory_order_relaxed) || copy_ready_) return;
  if (options_.min_steps_between_cuts > 0 &&
      step < last_cut_step_ + options_.min_steps_between_cuts) {
    return;  // keep the request pending until the interval is met
  }
  CopyStateLocked(step);
  cut_requested_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void SnapshotManager::BeginTraining() {
  std::lock_guard<std::mutex> lock(mu_);
  training_active_ = true;
}

void SnapshotManager::FinishTraining(uint64_t final_step) {
  std::lock_guard<std::mutex> lock(mu_);
  training_active_ = false;
  last_step_ = final_step;
  cv_.notify_all();
}

Status SnapshotManager::PublishIncremental(
    std::shared_ptr<const std::string> payload, bool is_delta,
    uint64_t generation, ServingSnapshot* out) {
  WallTimer publish_timer;
  Status status;
  {
    // Wait for the publish turn: deltas are relative to the buffers'
    // current state, so publishes replay in claim order even when
    // concurrent Cut() callers reach this point out of order. Holding the
    // turn (published_generation_ + 1 == generation) gives exclusive access
    // to the publisher without holding the lock through the heavy work.
    std::unique_lock<std::mutex> lock(publish_mu_);
    publish_cv_.wait(
        lock, [&] { return published_generation_ + 1 == generation; });
    status = publish_status_;
  }

  DoubleBufferPublisher::PublishResult published;
  if (status.ok()) {
    publisher_.Enqueue(generation, is_delta, std::move(payload));
    status = publisher_.Publish(generation, out, &published);
  }

  const double publish_us = publish_timer.ElapsedMicros();
  {
    // Advance the turn even on failure (later publishers fail fast on the
    // poisoned status instead of deadlocking on a generation gap).
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (!status.ok() && publish_status_.ok()) publish_status_ = status;
    published_generation_ = generation;
    publish_cv_.notify_all();
  }
  if (status.ok()) {
    // Only successful publishes report: a fail-fast on a poisoned chain
    // must not clobber the last real measurement with zeros, and a retire
    // whose replacement rebuild then failed produced no publish to count.
    RecordPublishStats(published.apply_us, published.apply_bytes, publish_us,
                       published.retired);
  }
  return status;
}

void SnapshotManager::RecordPublishStats(double apply_us, uint64_t apply_bytes,
                                         double publish_us, bool retired) {
  Metrics().apply_us->Record(apply_us);
  Metrics().apply_bytes->Add(apply_bytes);
  Metrics().publish_us->Record(publish_us);
  if (retired) Metrics().retired_buffers->Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.last_apply_us = apply_us;
  stats_.last_apply_bytes = apply_bytes;
  stats_.last_publish_us = publish_us;
  if (publish_us > stats_.max_publish_us) stats_.max_publish_us = publish_us;
  if (retired) ++stats_.retired_buffers;
}

StatusOr<std::shared_ptr<const ServingSnapshot>> SnapshotManager::Cut() {
  std::string payload;
  bool is_delta = false;
  auto snapshot = std::make_shared<ServingSnapshot>();
  uint64_t generation = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // One hand-off at a time: wait until no other cutter's request or
    // unclaimed copy is in flight (the publish below runs unlocked, so a
    // second cutter can already be copying while we publish).
    cv_.wait(lock, [this] {
      return !cut_requested_.load(std::memory_order_relaxed) && !copy_ready_;
    });
    if (training_active_) {
      cut_requested_.store(true, std::memory_order_release);
      cv_.wait(lock, [this] { return copy_ready_ || !training_active_; });
      if (!copy_ready_) {
        // The trainer finished before servicing us: the store is quiescent
        // again, copy directly at its final step.
        cut_requested_.store(false, std::memory_order_release);
        CopyStateLocked(last_step_);
      }
    } else {
      // No trainer pumping boundaries: the caller guarantees quiescence
      // (initial snapshot before training, or tail snapshot after it).
      CopyStateLocked(last_step_);
    }
    payload = std::move(pending_payload_);
    pending_payload_.clear();
    is_delta = pending_is_delta_;
    snapshot->dense_params = std::move(pending_dense_);
    pending_dense_.clear();
    snapshot->optimizer_state = std::move(pending_optimizer_);
    pending_optimizer_.clear();
    snapshot->has_optimizer = pending_has_optimizer_;
    snapshot->model_name = pending_model_name_;
    snapshot->train_step = pending_step_;
    copy_ready_ = false;
    const Status copy_status = pending_status_;
    cv_.notify_all();
    if (!copy_status.ok()) return copy_status;
    // Assign the generation at CLAIM time, under the lock: hand-offs are
    // serialized and copies are monotone in step, so generation order
    // always matches step order even when Cut() callers' unlocked
    // publishes finish out of order — a higher generation can never carry
    // an older state.
    generation = ++next_generation_;
    snapshot->generation = generation;
  }

  // The replication tap sees every claimed generation before the local
  // publish: replicas replay the same shared payload bytes the buffers do,
  // and never wait on the local swap. Fired outside mu_ (the observer may
  // do real work); out-of-order delivery across concurrent cutters is the
  // consumer's contract (it reorders by generation).
  auto shared_payload = std::make_shared<const std::string>(std::move(payload));
  if (options_.payload_observer) {
    BoundaryPayload boundary;
    boundary.generation = generation;
    boundary.train_step = snapshot->train_step;
    boundary.is_delta = is_delta;
    boundary.payload = shared_payload;
    boundary.dense_params = &snapshot->dense_params;
    boundary.optimizer_state = &snapshot->optimizer_state;
    boundary.has_optimizer = snapshot->has_optimizer;
    boundary.model_name = &snapshot->model_name;
    options_.payload_observer(boundary);
  }

  // Publish OFF the trainer's critical path.
  obs::TraceSpan publish_span("snapshot.publish");
  if (options_.incremental) {
    // Double-buffered O(dirty) publish: replay the lagging queue into the
    // non-serving buffer and freeze it in place (see the class comment).
    CAFE_RETURN_IF_ERROR(
        PublishIncremental(shared_payload, is_delta, generation,
                           snapshot.get()));
  } else {
    // Full publish: a factory-fresh store takes the copied state, then
    // freezes — each snapshot is self-contained.
    WallTimer timer;
    auto fresh = publisher_.MakeFreshStore();
    if (!fresh.ok()) return fresh.status();
    CAFE_RETURN_IF_ERROR(
        ApplyPayload(fresh->get(), /*is_delta=*/false, *shared_payload));
    snapshot->store = FrozenStore::Adopt(std::move(fresh).value());
    const double rebuild_us = timer.ElapsedMicros();
    RecordPublishStats(rebuild_us, shared_payload->size(), rebuild_us,
                       /*retired=*/false);
  }

  publish_span.Finish();
  Metrics().cuts->Add(1);
  if (is_delta) Metrics().delta_cuts->Add(1);
  Metrics().generation->Set(static_cast<double>(generation));

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cuts;
    if (is_delta) ++stats_.delta_cuts;
  }
  return std::shared_ptr<const ServingSnapshot>(std::move(snapshot));
}

SnapshotManager::Stats SnapshotManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cafe
