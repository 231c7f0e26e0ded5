#ifndef CAFE_SERVE_SWAPPABLE_STORE_H_
#define CAFE_SERVE_SWAPPABLE_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/embedding_store.h"
#include "serve/frozen_store.h"

namespace cafe {

/// One consistent, immutable serving generation: a frozen embedding store
/// plus (optionally) the dense model weights captured at the same training
/// step. SnapshotManager produces these mid-training; SwappableStore /
/// InferenceServer consume them. The struct is shared as
/// `shared_ptr<const ServingSnapshot>` so an install can never invalidate a
/// generation a worker is still executing against.
struct ServingSnapshot {
  /// Buffer lease, set only by DoubleBufferPublisher (incremental cuts and
  /// every replica publish): its deleter hands the resident buffer behind
  /// `store` back to that publisher for delta replay. Declared FIRST so it
  /// is destroyed LAST — the publisher must not see the buffer as
  /// reclaimable while the FrozenStore borrowing it still exists. Null for
  /// self-contained snapshots (full cuts own their store outright).
  std::shared_ptr<void> buffer_lease;
  /// Frozen at `train_step`; FrozenStore is inherently read-only, so the
  /// pointer is usable (e.g. to build a model replica over the snapshot)
  /// even through a const ServingSnapshot.
  std::unique_ptr<FrozenStore> store;
  /// Dense parameter blocks in CollectDenseParams order, captured at the
  /// same step boundary as the store. Empty when the snapshot was cut
  /// without a model (store-only rollout: replicas keep their weights).
  std::vector<std::vector<float>> dense_params;
  /// Optimizer adaptive state (Optimizer::SaveState bytes) captured at the
  /// same boundary when SnapshotManager::Options::capture_optimizer is set
  /// — together with `store` + `dense_params` this makes the snapshot a
  /// full training-resume checkpoint (serve/snapshot_checkpoint.h writes it
  /// as a v2 container). `has_optimizer` is true only when state was
  /// actually captured (capture_optimizer on AND the model has an
  /// optimizer); a capture from an optimizer-less model looks the same as
  /// no capture — restore then keeps a fresh optimizer either way.
  std::string optimizer_state;
  bool has_optimizer = false;
  /// Name of the model the dense weights (and optimizer state) came from;
  /// empty for store-only snapshots. Guards checkpoint restore.
  std::string model_name;
  /// Monotonic snapshot id (1-based; 0 means "no snapshot").
  uint64_t generation = 0;
  /// Trainer step boundary the state was copied at.
  uint64_t train_step = 0;
};

/// The hot-reload seam between a rollout thread and serving workers: an
/// EmbeddingStore whose lookups route to the CURRENT ServingSnapshot, where
/// "current" is flipped atomically by Install(). Worker models are built
/// over the SwappableStore once; fresh snapshots then roll out under them
/// without rebuilding models or draining the server.
///
/// Torn-read protection is the PinScope: a worker opens one pin per
/// micro-batch, and every lookup that worker thread performs inside the pin
/// resolves against the pinned snapshot — a swap mid-batch cannot mix
/// generations within one forward pass. The pin holds a shared_ptr, so the
/// snapshot outlives the batch even if Install() drops the hub's reference.
/// Lookups outside any pin take the current snapshot per call (each call
/// briefly holds its own reference).
///
/// Thread safety: Install() may race freely with any number of concurrent
/// readers; current_ is guarded by a mutex taken once per micro-batch (pin)
/// or once per un-pinned lookup call, never per id.
class SwappableStore : public EmbeddingStore {
 public:
  /// Starts serving `initial` (generation >= 1 required).
  explicit SwappableStore(std::shared_ptr<const ServingSnapshot> initial);

  /// Atomically publishes `snapshot` as the current generation and returns
  /// its generation id. In-flight pinned batches keep the old snapshot; new
  /// pins pick this one up. The embedding dim must match the initial
  /// snapshot (models are built against it).
  ///
  /// Install is also the RETIRE step of the double-buffered rollout: the
  /// hub's reference to the outgoing generation drops here, so once the
  /// last in-flight PinScope on it closes, its buffer_lease releases and
  /// the DoubleBufferPublisher reclaims that buffer for the next delta
  /// replay.
  uint64_t Install(std::shared_ptr<const ServingSnapshot> snapshot);

  /// The currently installed snapshot.
  std::shared_ptr<const ServingSnapshot> Acquire() const;

  /// Generation of the currently installed snapshot.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// RAII per-micro-batch pin: every lookup this THREAD performs on the
  /// store between construction and destruction resolves against one
  /// snapshot. Nests safely (the inner pin wins until it closes).
  class PinScope {
   public:
    explicit PinScope(const SwappableStore* store);
    ~PinScope();

    PinScope(const PinScope&) = delete;
    PinScope& operator=(const PinScope&) = delete;

    const ServingSnapshot& snapshot() const { return *snapshot_; }
    uint64_t generation() const { return snapshot_->generation; }

   private:
    const SwappableStore* store_;
    std::shared_ptr<const ServingSnapshot> snapshot_;
    const ServingSnapshot* previous_;  // restored on close (nesting)
  };

  // EmbeddingStore interface: reads route to the pinned (or current)
  // snapshot's frozen store; mutations abort like FrozenStore.
  uint32_t dim() const override { return dim_; }
  void Lookup(uint64_t id, float* out) override;
  void LookupConst(uint64_t id, float* out) const override;
  using EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override;
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override;
  void ApplyGradient(uint64_t id, const float* grad, float lr) override;
  using EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override;
  void Tick() override {}
  size_t MemoryBytes() const override;
  std::string Name() const override;

 private:
  struct PinEntry {
    const SwappableStore* owner = nullptr;
    const ServingSnapshot* snapshot = nullptr;
  };
  static thread_local PinEntry tls_pin_;

  /// The snapshot lookups should use right now: the thread's pin when it
  /// targets this store, else the current snapshot (kept alive via *hold).
  const ServingSnapshot* Resolve(
      std::shared_ptr<const ServingSnapshot>* hold) const;

  uint32_t dim_ = 0;
  mutable std::mutex mu_;
  std::shared_ptr<const ServingSnapshot> current_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace cafe

#endif  // CAFE_SERVE_SWAPPABLE_STORE_H_
