#ifndef CAFE_SERVE_DOUBLE_BUFFER_PUBLISHER_H_
#define CAFE_SERVE_DOUBLE_BUFFER_PUBLISHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "embed/embedding_store.h"
#include "serve/swappable_store.h"

namespace cafe {

/// Replays one boundary payload into `store` — LoadDelta for a delta,
/// LoadState for a base — and requires every byte to be consumed. The one
/// apply step behind every publish path and ReplicationSource's head store.
Status ApplyPayload(EmbeddingStore* store, bool is_delta,
                    const std::string& payload);

/// The O(dirty) publish both rollout tiers share: SnapshotManager on the
/// source, ReplicaManager on every replica.
///
///  - Two resident ping-pong buffer stores. Every payload is queued to both
///    (Enqueue); a Publish drains the NON-serving buffer's lagging queue —
///    the payloads it missed while the previous generation was serving from
///    it — by ApplyPayload, then freezes that buffer in place with a no-copy
///    handoff (FrozenStore::AdoptShared) while the other one keeps serving.
///    Slots alternate per successful publish, not by generation parity: a
///    replica rebase can jump the generation by any amount.
///  - Reclaim: each published snapshot carries a lease on its buffer. The
///    buffer re-enters replay only once every holder (including in-flight
///    SwappableStore PinScopes) has dropped the snapshot. A holder that keeps
///    it past `reclaim_wait_us` gets the buffer RETIRED to it (shared
///    ownership keeps it alive) and the slot is rebuilt: from a fresh store
///    when its queue holds a base, else as an O(store) SaveState clone of the
///    serving buffer.
///
/// It records no metrics: each manager exports its own (snapshot.* on the
/// source, replicate.<name>.* on a replica) from PublishResult.
///
/// Not thread-safe: the caller serializes Enqueue/Publish/Reset/serving()
/// (the source's publish turn, the replica's apply thread). Lease releases
/// may run on any thread, and a snapshot may outlive the publisher.
class DoubleBufferPublisher {
 public:
  /// Builds a fresh, untrained store of the published store's exact
  /// configuration (the checkpoint-restore contract: state is copied into
  /// it via LoadState).
  using FreshStoreFactory =
      std::function<StatusOr<std::unique_ptr<EmbeddingStore>>()>;

  /// `store_name`: the Name() every factory store must report ("" = any).
  DoubleBufferPublisher(FreshStoreFactory factory, std::string store_name,
                        uint64_t reclaim_wait_us);

  /// Factory call + null/name validation. Thread-safe.
  StatusOr<std::unique_ptr<EmbeddingStore>> MakeFreshStore() const;

  /// Queues a payload for `generation` to both buffers; shared, never
  /// copied.
  void Enqueue(uint64_t generation, bool is_delta,
               std::shared_ptr<const std::string> payload);

  /// What one successful Publish cost.
  struct PublishResult {
    /// Lagging-queue replay into the published buffer.
    double apply_us = 0.0;
    uint64_t apply_bytes = 0;
    /// The target buffer was still leased and had to be retired.
    bool retired = false;
  };

  /// Reclaims (or retires) the non-serving buffer, drains its queue to
  /// `generation`, and fills `out->store` and `out->buffer_lease`.
  Status Publish(uint64_t generation, ServingSnapshot* out,
                 PublishResult* result);

  /// Drops both buffers and their queues. Outstanding snapshots stay valid.
  void Reset();

  /// The buffer the last Publish froze (null before the first and after
  /// Reset). Read-only: it may be serving lookups concurrently.
  const EmbeddingStore* serving() const;

 private:
  struct PendingPayload {
    uint64_t generation = 0;
    bool is_delta = false;
    std::shared_ptr<const std::string> payload;
  };

  struct BufferSlot {
    std::shared_ptr<EmbeddingStore> store;  // null until first materialized
    /// Generation whose state the store currently holds.
    uint64_t state_gen = 0;
    /// Payloads newer than state_gen, oldest first (the lagging queue).
    std::deque<PendingPayload> pending;
  };

  /// Lease bookkeeping shared with outstanding snapshots' lease deleters;
  /// lives in a shared_ptr so a snapshot outliving the publisher releases
  /// against valid memory.
  struct LeaseState {
    std::mutex mu;
    std::condition_variable cv;
    bool leased[2] = {false, false};
    /// Bumped per lease hand-out AND per retire: a retired (stale) lease's
    /// eventual release compares its token against this and no-ops, so it
    /// can never clear a lease the replacement buffer handed out later.
    uint64_t epoch[2] = {0, 0};
  };

  /// Waits up to reclaim_wait_us for `slot`'s lease, else retires the
  /// buffer to its holder and rebuilds the slot (see the class comment).
  Status ReclaimOrRetire(size_t slot, uint64_t generation, bool* retired);

  FreshStoreFactory factory_;
  std::string store_name_;
  uint64_t reclaim_wait_us_;
  BufferSlot buffers_[2];
  /// Successful publishes so far; the next one targets slot publishes_ & 1.
  uint64_t publishes_ = 0;
  std::shared_ptr<LeaseState> leases_;
};

}  // namespace cafe

#endif  // CAFE_SERVE_DOUBLE_BUFFER_PUBLISHER_H_
