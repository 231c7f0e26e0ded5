#ifndef CAFE_SERVE_SNAPSHOT_MANAGER_H_
#define CAFE_SERVE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "embed/embedding_store.h"
#include "models/model.h"
#include "serve/double_buffer_publisher.h"
#include "serve/swappable_store.h"

namespace cafe {

/// Cuts consistent ServingSnapshots from a store (and optionally a model)
/// that is STILL TAKING gradient updates — the online half of the rollout
/// subsystem. No full quiesce: the server never drains and the trainer
/// never stops for a rebuild; it pauses only for the in-memory state copy.
///
/// The scheme is epoch-based double buffering, where an epoch is a training
/// step boundary:
///
///   trainer thread                      rollout thread
///   --------------                      --------------
///   TrainStep(batch k)                  Cut(): request + wait
///   AtStepBoundary(k):
///     state -> WRITE buffer  ----+
///   TrainStep(batch k+1)        +--->   claim buffer (now the READ buffer)
///   TrainStep(batch k+2)                publish off the trainer thread
///   AtStepBoundary(k+2):                (next Cut may already be copying)
///     state -> fresh WRITE buffer
///
/// Between gradient steps the store is consistent (every mutation happens
/// inside ApplyGradient*/Tick on the trainer thread), so the copy taken at
/// a boundary is exactly the state a quiesced freeze at that step would
/// capture — bit-identical, which tests/hot_swap_test.cc asserts. The copy
/// is the mutable state exposed by SaveState (tables, sketches, thresholds,
/// RNG — the complete continued-training state), so the expensive publish
/// runs on the rollout thread while training continues; ownership of the
/// hand-off buffer moves between the two threads at the epoch boundary,
/// never shared.
///
/// When no trainer is active (before BeginTraining / after FinishTraining)
/// Cut() copies directly on the calling thread — the store is quiescent by
/// contract then, which is how the initial and final generations are cut.
///
/// # Full cuts (Options::incremental == false)
///
/// Every cut copies the full SaveState payload and publishes by LoadState
/// into a factory-fresh store — each snapshot is self-contained, any number
/// of generations can be retained side by side, and both the trainer pause
/// and the publish are O(store bytes).
///
/// # Incremental cuts (Options::incremental == true)
///
/// The WHOLE path is O(rows changed since the last cut):
///
///  - Trainer copy: the first serviced cut copies the full SaveState base
///    and switches the store's dirty-row tracking on at the same boundary;
///    every later cut copies only a SaveDelta.
///  - Publish: each payload goes through a DoubleBufferPublisher (two
///    resident ping-pong buffer stores, lagging-queue delta replay into the
///    non-serving one, no-copy freeze, lease-gated reclaim; see
///    serve/double_buffer_publisher.h). Steady-state publish cost is two
///    delta applications. A generation retained past
///    Options::reclaim_wait_us forces an O(store) retire rebuild, counted in
///    Stats::retired_buffers.
///
/// Either way every published generation is bit-identical to a quiesced
/// SaveState freeze at its step — the invariant the hot-swap/parity test
/// batteries assert for all 9 stores, under TSan.
///
/// Incremental-mode retention contract: at most the two most recent
/// generations can be held WITHOUT forcing retire fallbacks; a rollout loop
/// that installs each snapshot into a SwappableStore (dropping its own
/// reference) satisfies it naturally. A snapshot may outlive the manager —
/// shared buffer ownership keeps its store alive.
class SnapshotManager {
 public:
  /// Builds a fresh, untrained store of the live store's exact
  /// configuration (the checkpoint-restore contract: state is copied into
  /// it via LoadState).
  using FreshStoreFactory = DoubleBufferPublisher::FreshStoreFactory;

  /// One boundary copy, as handed to Options::payload_observer: exactly
  /// the bytes a replica must replay to reach `generation` (a full
  /// SaveState base, or a SaveDelta relative to generation - 1), plus the
  /// sidecar the snapshot carries. The pointers are valid only for the
  /// duration of the observer call; `payload` may be retained (it is the
  /// same shared buffer the publish path replays, never copied).
  struct BoundaryPayload {
    uint64_t generation = 0;
    uint64_t train_step = 0;
    bool is_delta = false;
    std::shared_ptr<const std::string> payload;
    const std::vector<std::vector<float>>* dense_params = nullptr;
    const std::string* optimizer_state = nullptr;
    bool has_optimizer = false;
    const std::string* model_name = nullptr;
  };

  /// Observes every successful boundary copy, invoked from Cut() after the
  /// generation is claimed and BEFORE the local publish (a replica stream
  /// never waits on the local buffer swap, and still sees a generation
  /// whose local publish later failed — the failure poisons the LOCAL
  /// chain; the shipped payload itself is consistent). Calls may arrive
  /// out of generation order when Cut() runs concurrently; consumers must
  /// reorder by `generation`. The observer must not call back into the
  /// manager.
  using PayloadObserver = std::function<void(const BoundaryPayload&)>;

  struct Options {
    /// Trainer steps that must elapse between serviced cuts; a pending
    /// request simply waits at the boundary until the interval is met.
    /// 0 services every request at the next boundary.
    uint64_t min_steps_between_cuts = 0;

    /// Replication tap (see BoundaryPayload above); null = disabled.
    PayloadObserver payload_observer;

    /// Incremental cuts + double-buffered O(dirty) publish (see the class
    /// comment). Requires a store with SupportsIncrementalSnapshots()
    /// (checked at construction).
    bool incremental = false;

    /// Also copy the live model's Optimizer::SaveState (Adagrad/Adam
    /// accumulators, Adam step counter) at the same boundary, making every
    /// snapshot a full training-resume checkpoint
    /// (serve/snapshot_checkpoint.h writes it as a v2 container). Adds the
    /// optimizer serialize to the trainer pause. Requires a live model.
    bool capture_optimizer = false;

    /// Incremental mode: how long a publish waits for the target buffer's
    /// lease before giving up and retiring it (O(store) rebuild fallback).
    /// In a healthy rollout the lease released a whole cut interval ago;
    /// this only bites consumers that retain generations.
    uint64_t reclaim_wait_us = 20000;
  };

  /// `live_store` (and `live_model`, when not null) must outlive the
  /// manager; `live_model`'s dense parameters are captured into each
  /// snapshot at the same boundary as the store state. Pass a null model
  /// for store-only snapshots.
  SnapshotManager(EmbeddingStore* live_store, RecModel* live_model,
                  FreshStoreFactory factory, const Options& options);
  SnapshotManager(EmbeddingStore* live_store, RecModel* live_model,
                  FreshStoreFactory factory);

  /// Switches the live store's dirty tracking back off (incremental mode)
  /// with a FULL epoch reset, so a fresh manager on the same live store —
  /// even after this one's publish chain was poisoned — rebases cleanly.
  /// The caller must have stopped training and joined every Cut() caller
  /// first — the same quiescence the rest of teardown already requires.
  /// Outstanding snapshots stay valid: their buffers are co-owned.
  ~SnapshotManager();

  /// Trainer thread: call once between TrainStep k and k+1 (and never
  /// concurrently with mutations). Near-free when no cut is pending (one
  /// relaxed atomic load); services a pending request by copying the
  /// store's state + the model's dense weights into the hand-off buffer.
  void AtStepBoundary(uint64_t step);

  /// Marks the trainer active: Cut() now blocks for a boundary copy
  /// instead of copying directly.
  void BeginTraining();

  /// Trainer thread, after the last step: wakes any cutter still waiting
  /// (it falls back to a direct copy — the store is quiescent again) and
  /// returns Cut() to direct-copy mode. `final_step` labels those cuts.
  void FinishTraining(uint64_t final_step);

  /// Rollout thread: returns a consistent snapshot of the live state.
  /// Active trainer: blocks until the next (interval-eligible) step
  /// boundary copy, then publishes off the trainer thread. Idle trainer:
  /// copies directly on this thread. Concurrent Cut() calls are safe; they
  /// serialize on the hand-off and (incremental mode) publish in claim
  /// order.
  StatusOr<std::shared_ptr<const ServingSnapshot>> Cut();

  /// True while a Cut() is waiting for a step boundary to copy at. Lets
  /// tests (and cautious trainers) sequence deterministically against the
  /// rollout thread; the training loop itself only needs AtStepBoundary.
  bool cut_pending() const {
    return cut_requested_.load(std::memory_order_acquire);
  }

  struct Stats {
    uint64_t cuts = 0;
    /// Cuts serviced as deltas (incremental mode; the first cut is a base).
    uint64_t delta_cuts = 0;
    /// Incremental publishes that hit the retire fallback (the target
    /// buffer's generation was still held past reclaim_wait_us, forcing an
    /// O(store) rebuild). 0 in a healthy install-and-release rollout.
    uint64_t retired_buffers = 0;
    /// Trainer pause per cut (the state copy) — the cost training pays.
    double last_copy_us = 0.0;
    double max_copy_us = 0.0;
    /// Bytes of the last boundary copy (full SaveState or delta payload).
    uint64_t last_copy_bytes = 0;
    /// Off-trainer publish per cut, split into the delta/base replay into
    /// the target buffer (apply) and the whole publish (reclaim wait +
    /// apply + freeze). Incremental mode: apply bytes are the lagging-queue
    /// payload bytes folded into the published buffer — O(dirty) in steady
    /// state. Full mode: apply == the LoadState rebuild, bytes == the full
    /// payload.
    double last_apply_us = 0.0;
    uint64_t last_apply_bytes = 0;
    double last_publish_us = 0.0;
    double max_publish_us = 0.0;
  };
  Stats stats() const;

 private:
  /// Copies live state into the hand-off buffer — the full SaveState
  /// payload, or (incremental mode, after the base) a SaveDelta — plus the
  /// model's dense weights and (capture_optimizer) optimizer state. Caller
  /// holds mu_ and guarantees the store is not being mutated (trainer
  /// thread at a boundary, or no trainer active).
  void CopyStateLocked(uint64_t step);

  /// Incremental-mode publish for `generation`: wait for the publish turn,
  /// then hand the payload to the publisher, which freezes it into `out`
  /// with a lease. Fills the apply/publish stats fields.
  Status PublishIncremental(std::shared_ptr<const std::string> payload,
                            bool is_delta, uint64_t generation,
                            ServingSnapshot* out);

  /// One definition of the per-publish Stats update (apply/publish splits,
  /// maxes, the retire counter), shared by the incremental and full publish
  /// paths so the two modes cannot drift.
  void RecordPublishStats(double apply_us, uint64_t apply_bytes,
                          double publish_us, bool retired);

  EmbeddingStore* live_store_;
  RecModel* live_model_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Fast-path flag the trainer polls; mu_ guards the slow path.
  std::atomic<bool> cut_requested_{false};
  bool copy_ready_ = false;
  bool training_active_ = false;
  uint64_t last_step_ = 0;
  uint64_t last_cut_step_ = 0;
  /// Incremental mode: true once the base copy + EnableDirtyTracking ran
  /// at a boundary (subsequent copies are deltas). Guarded by mu_.
  bool base_cut_done_ = false;
  // Hand-off buffer (the write buffer until claimed by Cut(), which moves
  // it out and leaves a fresh one behind — the double-buffer exchange).
  std::string pending_payload_;
  bool pending_is_delta_ = false;
  std::vector<std::vector<float>> pending_dense_;
  std::string pending_optimizer_;
  bool pending_has_optimizer_ = false;
  std::string pending_model_name_;
  uint64_t pending_step_ = 0;
  Status pending_status_;
  /// Guarded by mu_; assigned at claim time so generation order == step
  /// order regardless of publish completion order.
  uint64_t next_generation_ = 0;

  /// Incremental-mode publish state. Publishes MUST run in claim order
  /// (each delta is relative to the buffers' current state), so publishers
  /// sequence on published_generation_ under publish_mu_; the turn holder
  /// then drives the publisher unlocked (no other thread touches it until
  /// it advances the generation). A failed publish poisons the chain:
  /// every later incremental cut fails fast instead of publishing divergent
  /// state. The full-cut path only calls the publisher's thread-safe
  /// MakeFreshStore.
  std::mutex publish_mu_;
  std::condition_variable publish_cv_;
  uint64_t published_generation_ = 0;
  Status publish_status_;
  DoubleBufferPublisher publisher_;

  Stats stats_;
};

}  // namespace cafe

#endif  // CAFE_SERVE_SNAPSHOT_MANAGER_H_
