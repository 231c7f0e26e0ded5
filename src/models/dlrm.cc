#include "models/dlrm.h"

#include <cstring>

#include "common/logging.h"
#include "common/simd.h"
#include "nn/loss.h"

namespace cafe {

StatusOr<std::unique_ptr<DlrmModel>> DlrmModel::Create(
    const ModelConfig& config, EmbeddingStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("dlrm: embedding store is required");
  }
  if (store->dim() != config.emb_dim) {
    return Status::InvalidArgument("dlrm: store dim != config.emb_dim");
  }
  if (config.num_fields == 0) {
    return Status::InvalidArgument("dlrm: num_fields must be positive");
  }
  return std::unique_ptr<DlrmModel>(new DlrmModel(config, store));
}

DlrmModel::DlrmModel(const ModelConfig& config, EmbeddingStore* store)
    : config_(config),
      store_(store),
      emb_layer_(store, config.num_fields),
      rng_(config.seed) {
  if (config_.num_numerical > 0) {
    std::vector<size_t> bottom_sizes;
    bottom_sizes.push_back(config_.num_numerical);
    bottom_sizes.insert(bottom_sizes.end(), config_.bottom_hidden.begin(),
                        config_.bottom_hidden.end());
    bottom_sizes.push_back(config_.emb_dim);
    bottom_ = std::make_unique<Mlp>(bottom_sizes, rng_);
  }
  std::vector<size_t> top_sizes;
  top_sizes.push_back(TopInputSize());
  top_sizes.insert(top_sizes.end(), config_.top_hidden.begin(),
                   config_.top_hidden.end());
  top_sizes.push_back(1);
  top_ = std::make_unique<Mlp>(top_sizes, rng_);

  optimizer_ = MakeOptimizer(config_.dense_optimizer);
  CAFE_CHECK(optimizer_ != nullptr)
      << "unknown optimizer: " << config_.dense_optimizer;
  std::vector<Param> params;
  CollectDenseParams(&params);
  optimizer_->Register(params);
}

void DlrmModel::CollectDenseParams(std::vector<Param>* out) {
  if (bottom_ != nullptr) bottom_->CollectParams(out);
  top_->CollectParams(out);
}

void DlrmModel::Forward(const Batch& batch, Tensor* logits) {
  CAFE_DCHECK(batch.num_fields == config_.num_fields);
  const uint32_t d = config_.emb_dim;
  const size_t k = NumVectors();
  vectors_.Resize(batch.batch_size, k * d);
  emb_layer_.Forward(batch, vectors_.data(), k * d);

  if (bottom_ != nullptr) {
    numerical_in_.Resize(batch.batch_size, config_.num_numerical);
    std::memcpy(numerical_in_.data(), batch.numerical,
                batch.batch_size * config_.num_numerical * sizeof(float));
    bottom_->Forward(numerical_in_, &bottom_out_);
  }

  // Dot-product interaction: all pairwise dots between the K vectors of
  // each sample; the bottom output (if any) is vector index F and is also
  // concatenated raw.
  const size_t raw = bottom_ != nullptr ? d : 0;
  interaction_.Resize(batch.batch_size, TopInputSize());
  for (size_t b = 0; b < batch.batch_size; ++b) {
    float* vecs = vectors_.row(b);
    float* out = interaction_.row(b);
    if (bottom_ != nullptr) {
      std::memcpy(vecs + config_.num_fields * d, bottom_out_.row(b),
                  d * sizeof(float));
      std::memcpy(out, bottom_out_.row(b), d * sizeof(float));
    }
    simd::DotInteraction(vecs, k, d, out + raw);
  }
  top_->Forward(interaction_, logits);
}

double DlrmModel::TrainStep(const Batch& batch) {
  Forward(batch, &logits_);
  const double loss =
      BceWithLogitsLoss::Compute(logits_, batch.labels, &grad_logits_);

  optimizer_->ZeroGrad();
  top_->Backward(grad_logits_, &grad_interaction_);

  // Interaction backward: d(vi . vj)/dvi = vj. The bottom vector first
  // receives the gradient of its raw concatenation.
  const uint32_t d = config_.emb_dim;
  const size_t k = NumVectors();
  const size_t raw = bottom_ != nullptr ? d : 0;
  const size_t bottom_at = config_.num_fields * d;
  grad_vectors_.Resize(batch.batch_size, k * d);
  grad_vectors_.Zero();
  for (size_t b = 0; b < batch.batch_size; ++b) {
    const float* g_int = grad_interaction_.row(b);
    float* g_vecs = grad_vectors_.row(b);
    for (size_t t = 0; t < raw; ++t) g_vecs[bottom_at + t] += g_int[t];
    simd::DotInteractionBackward(vectors_.row(b), g_int + raw, k, d, g_vecs);
  }
  if (bottom_ != nullptr) {
    grad_bottom_out_.Resize(batch.batch_size, d);
    for (size_t b = 0; b < batch.batch_size; ++b) {
      std::memcpy(grad_bottom_out_.row(b), grad_vectors_.row(b) + bottom_at,
                  d * sizeof(float));
    }
    bottom_->Backward(grad_bottom_out_, &grad_numerical_);
  }
  optimizer_->Step(config_.dense_lr);
  emb_layer_.Backward(batch, grad_vectors_.data(), k * d, config_.emb_lr,
                      /*reuse_staged_ids=*/true);
  store_->Tick();
  return loss;
}

void DlrmModel::Predict(const Batch& batch, std::vector<float>* logits) {
  Forward(batch, &logits_);
  logits->assign(logits_.data(), logits_.data() + batch.batch_size);
}

size_t DlrmModel::DenseParameters() const {
  size_t total = top_->NumParameters();
  if (bottom_ != nullptr) total += bottom_->NumParameters();
  return total;
}

}  // namespace cafe
