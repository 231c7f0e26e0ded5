#ifndef CAFE_MODELS_DLRM_H_
#define CAFE_MODELS_DLRM_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "models/model.h"
#include "nn/embedding_bag.h"
#include "nn/mlp.h"

namespace cafe {

/// DLRM (Naumov et al. 2019): the paper's primary model (§5.1.1).
///
/// Architecture: categorical fields embed to d-dim vectors; numerical
/// features pass through a bottom MLP ending at d; the dot-product
/// interaction computes all pairwise dots between the K = num_fields (+1
/// with a bottom tower) vectors; the top MLP maps [bottom output, dots] to
/// one logit.
class DlrmModel : public RecModel {
 public:
  /// `store` must outlive the model and have dim == config.emb_dim.
  static StatusOr<std::unique_ptr<DlrmModel>> Create(
      const ModelConfig& config, EmbeddingStore* store);

  double TrainStep(const Batch& batch) override;
  void Predict(const Batch& batch, std::vector<float>* logits) override;
  std::string Name() const override { return "dlrm"; }
  EmbeddingStore* store() override { return store_; }
  size_t DenseParameters() const override;
  void CollectDenseParams(std::vector<Param>* out) override;
  Optimizer* optimizer() override { return optimizer_.get(); }
  void SetBackwardParallelism(ThreadPool* pool, uint32_t shards) override {
    emb_layer_.SetBackwardParallelism(pool, shards);
  }

 private:
  DlrmModel(const ModelConfig& config, EmbeddingStore* store);

  size_t NumVectors() const {
    return config_.num_fields + (bottom_ != nullptr ? 1 : 0);
  }
  size_t NumPairs() const {
    const size_t k = NumVectors();
    return k * (k - 1) / 2;
  }
  size_t TopInputSize() const {
    return NumPairs() + (bottom_ != nullptr ? config_.emb_dim : 0);
  }

  /// Forward through embeddings + bottom tower + interaction + top MLP.
  /// Leaves intermediate tensors cached for Backward.
  void Forward(const Batch& batch, Tensor* logits);

  ModelConfig config_;
  EmbeddingStore* store_;
  EmbeddingLayerGroup emb_layer_;  // batched lookup/update over store_
  Rng rng_;
  std::unique_ptr<Mlp> bottom_;  // nullptr when num_numerical == 0
  std::unique_ptr<Mlp> top_;
  std::unique_ptr<Optimizer> optimizer_;

  // Step-scoped caches.
  Tensor vectors_;      // B x K*d: the F embeddings, then the bottom output
  Tensor bottom_out_;   // B x d
  Tensor interaction_;  // B x TopInputSize()
  Tensor logits_;       // B x 1
  Tensor grad_logits_;
  Tensor grad_interaction_;
  Tensor grad_vectors_;  // B x K*d, laid out like vectors_
  Tensor grad_bottom_out_;
  Tensor grad_numerical_;  // sink for bottom MLP input grads
  Tensor numerical_in_;
};

}  // namespace cafe

#endif  // CAFE_MODELS_DLRM_H_
