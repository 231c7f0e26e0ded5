#include "serve/double_buffer_publisher.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "io/serialize.h"
#include "serve/frozen_store.h"

namespace cafe {

Status ApplyPayload(EmbeddingStore* store, bool is_delta,
                    const std::string& payload) {
  io::Reader reader(&payload);
  CAFE_RETURN_IF_ERROR(is_delta ? store->LoadDelta(&reader)
                                : store->LoadState(&reader));
  if (reader.remaining() != 0) {
    return Status::Internal("snapshot payload not fully consumed by " +
                            store->Name() +
                            (is_delta ? " LoadDelta" : " LoadState"));
  }
  return Status::OK();
}

DoubleBufferPublisher::DoubleBufferPublisher(FreshStoreFactory factory,
                                             std::string store_name,
                                             uint64_t reclaim_wait_us)
    : factory_(std::move(factory)),
      store_name_(std::move(store_name)),
      reclaim_wait_us_(reclaim_wait_us),
      leases_(std::make_shared<LeaseState>()) {
  CAFE_CHECK(factory_ != nullptr) << "double-buffer publisher needs a factory";
}

void DoubleBufferPublisher::Enqueue(
    uint64_t generation, bool is_delta,
    std::shared_ptr<const std::string> payload) {
  // The target folds it in at the next publish; the other buffer keeps it
  // queued until it rotates back to the off position.
  buffers_[0].pending.push_back({generation, is_delta, payload});
  buffers_[1].pending.push_back({generation, is_delta, std::move(payload)});
}

StatusOr<std::unique_ptr<EmbeddingStore>>
DoubleBufferPublisher::MakeFreshStore() const {
  auto fresh = factory_();
  if (!fresh.ok()) return fresh.status();
  if (*fresh == nullptr) {
    return Status::InvalidArgument("snapshot store factory returned null");
  }
  if (!store_name_.empty() && (*fresh)->Name() != store_name_) {
    return Status::FailedPrecondition(
        "snapshot store factory built '" + (*fresh)->Name() +
        "' but the live store is '" + store_name_ + "'");
  }
  return fresh;
}

Status DoubleBufferPublisher::ReclaimOrRetire(size_t slot, uint64_t generation,
                                              bool* retired) {
  {
    std::unique_lock<std::mutex> lock(leases_->mu);
    const auto wait = std::chrono::microseconds(reclaim_wait_us_);
    if (leases_->leased[slot] &&
        !leases_->cv.wait_for(lock, wait,
                              [&] { return !leases_->leased[slot]; })) {
      // The generation published from this slot is still held: retire the
      // buffer to its holder and bump the epoch so the stale lease's
      // eventual release cannot clear a lease the REPLACEMENT hands out.
      leases_->leased[slot] = false;
      ++leases_->epoch[slot];
      *retired = true;
    }
  }
  if (!*retired) return Status::OK();

  BufferSlot& target = buffers_[slot];
  target.store.reset();  // the holder's FrozenStore keeps the old buffer
  target.state_gen = 0;
  // A queued base rebuilds from nothing: the drain replays it into a fresh
  // store. Entries BEFORE the last base must go — a delta replayed into an
  // untrained store is not merely wrong, its decay-replay guards reject it.
  const auto last_base =
      std::find_if(target.pending.rbegin(), target.pending.rend(),
                   [](const PendingPayload& p) { return !p.is_delta; });
  if (last_base != target.pending.rend()) {
    target.pending.erase(target.pending.begin(), std::prev(last_base.base()));
    return Status::OK();
  }

  // Delta-only queue: clone the serving buffer, exactly one generation
  // behind (deltas are contiguous). SaveState is const and the buffer is
  // frozen, so this runs alongside concurrent serving lookups. This is the
  // O(store) fallback the lease machinery exists to avoid.
  const BufferSlot& serving = buffers_[slot ^ 1];
  if (serving.store == nullptr || serving.state_gen + 1 != generation) {
    return Status::Internal(
        "double-buffer retire: serving buffer is not at the preceding "
        "generation");
  }
  auto fresh = MakeFreshStore();
  if (!fresh.ok()) return fresh.status();
  io::Writer writer;
  CAFE_RETURN_IF_ERROR(serving.store->SaveState(&writer));
  CAFE_RETURN_IF_ERROR(
      ApplyPayload(fresh->get(), /*is_delta=*/false, writer.Release()));
  target.store = std::move(fresh).value();
  target.state_gen = serving.state_gen;
  while (!target.pending.empty() &&
         target.pending.front().generation <= target.state_gen) {
    target.pending.pop_front();
  }
  return Status::OK();
}

Status DoubleBufferPublisher::Publish(uint64_t generation, ServingSnapshot* out,
                                      PublishResult* result) {
  *result = PublishResult();
  const size_t slot = static_cast<size_t>(publishes_ & 1);
  CAFE_RETURN_IF_ERROR(ReclaimOrRetire(slot, generation, &result->retired));

  BufferSlot& target = buffers_[slot];
  WallTimer apply_timer;
  while (!target.pending.empty()) {
    PendingPayload entry = std::move(target.pending.front());
    target.pending.pop_front();
    if (entry.generation <= target.state_gen) continue;  // already folded in
    if (target.store == nullptr) {
      auto fresh = MakeFreshStore();
      if (!fresh.ok()) return fresh.status();
      target.store = std::move(fresh).value();
    }
    CAFE_RETURN_IF_ERROR(
        ApplyPayload(target.store.get(), entry.is_delta, *entry.payload));
    result->apply_bytes += entry.payload->size();
    target.state_gen = entry.generation;
  }
  result->apply_us = apply_timer.ElapsedMicros();
  if (target.state_gen != generation) {
    return Status::Internal(
        "double-buffer publish drained to the wrong generation");
  }

  // Freeze + no-copy handoff. The lease is marked before the snapshot
  // escapes; its deleter (run by whoever drops the last reference — the hub
  // at Install, or the last in-flight PinScope) hands the buffer back.
  uint64_t token = 0;
  {
    std::lock_guard<std::mutex> lock(leases_->mu);
    leases_->leased[slot] = true;
    token = ++leases_->epoch[slot];
  }
  out->buffer_lease = std::shared_ptr<void>(
      static_cast<void*>(nullptr),
      [leases = leases_, slot, token](void*) {
        std::lock_guard<std::mutex> lock(leases->mu);
        if (leases->epoch[slot] == token) {
          leases->leased[slot] = false;
          leases->cv.notify_all();
        }
      });
  out->store = FrozenStore::AdoptShared(target.store);
  ++publishes_;
  return Status::OK();
}

void DoubleBufferPublisher::Reset() {
  for (BufferSlot& slot : buffers_) slot = BufferSlot();
  publishes_ = 0;
  // Outstanding snapshots release against the old lease state.
  leases_ = std::make_shared<LeaseState>();
}

const EmbeddingStore* DoubleBufferPublisher::serving() const {
  if (publishes_ == 0) return nullptr;
  return buffers_[(publishes_ - 1) & 1].store.get();
}

}  // namespace cafe
