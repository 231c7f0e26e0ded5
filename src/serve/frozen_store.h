#ifndef CAFE_SERVE_FROZEN_STORE_H_
#define CAFE_SERVE_FROZEN_STORE_H_

#include <memory>
#include <string>

#include "embed/embedding_store.h"

namespace cafe {

/// Read-only snapshot adapter over a trained EmbeddingStore — the serving
/// side of the train → checkpoint → serve pipeline.
///
/// A frozen store routes every lookup through the underlying store's
/// side-effect-free const path (LookupConst / LookupBatchConst): hot/cold
/// classification, sketch contents, and importance statistics are exactly
/// as they were at snapshot time and are never advanced, so lookups are
/// pure gathers with no bookkeeping. That is also the thread-safety
/// argument: the const paths touch no shared scratch, so ANY number of
/// serving threads may execute lookups concurrently.
///
/// FrozenStore derives EmbeddingStore so the whole existing execution stack
/// — EmbeddingLayerGroup, the models, the trainer's evaluation helpers —
/// runs over a snapshot unchanged. Mutating entry points (ApplyGradient*)
/// crash loudly: a frozen store in a training loop is a deployment bug, not
/// a recoverable condition.
///
/// Ownership: Adopt() freezes and owns a store (the usual serving setup:
/// load a checkpoint into a fresh store, hand it to the server); Wrap()
/// borrows one that must outlive the snapshot AND stay quiescent — any
/// concurrent training on the wrapped store is a data race. AdoptShared()
/// is the no-copy handoff for the double-buffered publish path: it freezes
/// a store the DoubleBufferPublisher keeps co-owning, so the same resident
/// buffer can be served now and handed back (through the snapshot's lease)
/// for delta replay once every reader — including outstanding PinScopes
/// holding the snapshot — is gone.
class FrozenStore : public EmbeddingStore {
 public:
  static std::unique_ptr<FrozenStore> Adopt(
      std::unique_ptr<EmbeddingStore> store);
  static std::unique_ptr<FrozenStore> AdoptShared(
      std::shared_ptr<EmbeddingStore> store);
  static std::unique_ptr<FrozenStore> Wrap(const EmbeddingStore* store);

  uint32_t dim() const override { return store_->dim(); }
  void Lookup(uint64_t id, float* out) override;
  void LookupConst(uint64_t id, float* out) const override;
  using EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override;
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override;

  /// Frozen stores are read-only; calling these aborts.
  void ApplyGradient(uint64_t id, const float* grad, float lr) override;
  using EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override;
  void Tick() override {}

  size_t MemoryBytes() const override { return store_->MemoryBytes(); }
  std::string Name() const override { return store_->Name() + "-frozen"; }

  const EmbeddingStore* underlying() const { return store_; }

 private:
  FrozenStore(const EmbeddingStore* store,
              std::unique_ptr<EmbeddingStore> owned,
              std::shared_ptr<EmbeddingStore> shared);

  const EmbeddingStore* store_;            // never null
  std::unique_ptr<EmbeddingStore> owned_;  // null unless Adopt()
  std::shared_ptr<EmbeddingStore> shared_;  // null unless AdoptShared()
};

}  // namespace cafe

#endif  // CAFE_SERVE_FROZEN_STORE_H_
