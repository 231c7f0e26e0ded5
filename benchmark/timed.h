#ifndef CAFE_BENCHMARK_TIMED_H_
#define CAFE_BENCHMARK_TIMED_H_

// Forwarding wrappers for the traced run. Each forwards EVERY virtual of
// its interface to the wrapped object — falling back to a base-class
// default (the serial backward, the scalar batch loops) would make the
// traced run measure a different program — and records a span around the
// calls the per-layer metrics need.

#include <memory>
#include <string>
#include <vector>

#include "embed/embedding_store.h"
#include "models/model.h"
#include "trace.h"

namespace cafe {
namespace bench {

/// Times LookupBatch, ApplyGradientBatch, ApplyGradientBatchSharded and
/// Tick as spans named "train.gather" / "train.scatter" / "train.tick", or
/// "serve.gather" for the store under the server's model replicas.
class TimedStore final : public EmbeddingStore {
 public:
  TimedStore(EmbeddingStore* inner, bool serving)
      : inner_(inner),
        gather_(serving ? "serve.gather" : "train.gather"),
        scatter_(serving ? "serve.scatter" : "train.scatter"),
        tick_(serving ? "serve.tick" : "train.tick") {}

  uint32_t dim() const override { return inner_->dim(); }
  void Lookup(uint64_t id, float* out) override { inner_->Lookup(id, out); }
  void LookupConst(uint64_t id, float* out) const override {
    inner_->LookupConst(id, out);
  }
  void ApplyGradient(uint64_t id, const float* grad, float lr) override {
    inner_->ApplyGradient(id, grad, lr);
  }
  using EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override {
    ScopedSpan span(gather_, 0, n);
    inner_->LookupBatch(ids, n, out, out_stride);
  }
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override {
    ScopedSpan span(gather_, 0, n);
    inner_->LookupBatchConst(ids, n, out, out_stride);
  }
  using EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override {
    ScopedSpan span(scatter_, 0, n);
    inner_->ApplyGradientBatch(ids, n, grads, grad_stride, lr, clip);
  }
  void ApplyGradientBatchSharded(const uint64_t* ids, size_t n,
                                 const float* grads, size_t grad_stride,
                                 float lr, float clip, ThreadPool* pool,
                                 uint32_t num_shards) override {
    ScopedSpan span(scatter_, 0, n);
    inner_->ApplyGradientBatchSharded(ids, n, grads, grad_stride, lr, clip,
                                      pool, num_shards);
  }
  void Tick() override {
    ScopedSpan span(tick_);
    inner_->Tick();
  }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::string Name() const override { return inner_->Name(); }
  Status SaveState(io::Writer* writer) const override {
    return inner_->SaveState(writer);
  }
  Status LoadState(io::Reader* reader) override {
    return inner_->LoadState(reader);
  }
  bool SupportsIncrementalSnapshots() const override {
    return inner_->SupportsIncrementalSnapshots();
  }
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override {
    return inner_->EnableDirtyTracking(enable);
  }
  Status SaveDelta(io::Writer* writer) override {
    return inner_->SaveDelta(writer);
  }
  Status LoadDelta(io::Reader* reader) override {
    return inner_->LoadDelta(reader);
  }

 private:
  EmbeddingStore* inner_;
  // String literals: spans keep the pointer until they are written at exit.
  const char* gather_;
  const char* scatter_;
  const char* tick_;
};

/// Times Predict as a "serve.predict" span (items = samples).
class TimedModel final : public RecModel {
 public:
  explicit TimedModel(std::unique_ptr<RecModel> inner)
      : inner_(std::move(inner)) {}

  double TrainStep(const Batch& batch) override {
    return inner_->TrainStep(batch);
  }
  void Predict(const Batch& batch, std::vector<float>* logits) override {
    ScopedSpan span("serve.predict", 0, batch.batch_size);
    inner_->Predict(batch, logits);
  }
  std::string Name() const override { return inner_->Name(); }
  EmbeddingStore* store() override { return inner_->store(); }
  size_t DenseParameters() const override { return inner_->DenseParameters(); }
  void CollectDenseParams(std::vector<Param>* out) override {
    inner_->CollectDenseParams(out);
  }
  Optimizer* optimizer() override { return inner_->optimizer(); }
  void SetBackwardParallelism(ThreadPool* pool, uint32_t shards) override {
    inner_->SetBackwardParallelism(pool, shards);
  }

 private:
  std::unique_ptr<RecModel> inner_;
};

}  // namespace bench
}  // namespace cafe

#endif  // CAFE_BENCHMARK_TIMED_H_
