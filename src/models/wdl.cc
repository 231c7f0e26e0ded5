#include "models/wdl.h"

#include <cstring>

#include "common/logging.h"
#include "nn/loss.h"

namespace cafe {

StatusOr<std::unique_ptr<WdlModel>> WdlModel::Create(const ModelConfig& config,
                                                     EmbeddingStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("wdl: embedding store is required");
  }
  if (store->dim() != config.emb_dim) {
    return Status::InvalidArgument("wdl: store dim != config.emb_dim");
  }
  if (config.num_fields == 0) {
    return Status::InvalidArgument("wdl: num_fields must be positive");
  }
  return std::unique_ptr<WdlModel>(new WdlModel(config, store));
}

WdlModel::WdlModel(const ModelConfig& config, EmbeddingStore* store)
    : config_(config),
      store_(store),
      emb_layer_(store, config.num_fields),
      rng_(config.seed) {
  wide_ = std::make_unique<Linear>(InputSize(), 1, rng_);
  std::vector<size_t> deep_sizes;
  deep_sizes.push_back(InputSize());
  deep_sizes.insert(deep_sizes.end(), config_.top_hidden.begin(),
                    config_.top_hidden.end());
  deep_sizes.push_back(1);
  deep_ = std::make_unique<Mlp>(deep_sizes, rng_);

  optimizer_ = MakeOptimizer(config_.dense_optimizer);
  CAFE_CHECK(optimizer_ != nullptr)
      << "unknown optimizer: " << config_.dense_optimizer;
  std::vector<Param> params;
  CollectDenseParams(&params);
  optimizer_->Register(params);
}

void WdlModel::CollectDenseParams(std::vector<Param>* out) {
  wide_->CollectParams(out);
  deep_->CollectParams(out);
}

void WdlModel::BuildInput(const Batch& batch) {
  const size_t emb_cols = config_.num_fields * config_.emb_dim;
  input_.Resize(batch.batch_size, InputSize());
  // Batched embedding gather straight into the input tensor (sample stride
  // InputSize()); the numerical tail of each row is filled afterwards.
  emb_layer_.Forward(batch, input_.data(), InputSize());
  if (config_.num_numerical > 0) {
    for (size_t b = 0; b < batch.batch_size; ++b) {
      std::memcpy(input_.row(b) + emb_cols, batch.sample_numerical(b),
                  config_.num_numerical * sizeof(float));
    }
  }
}

void WdlModel::Forward(const Batch& batch, Tensor* logits) {
  CAFE_DCHECK(batch.num_fields == config_.num_fields);
  BuildInput(batch);
  wide_->Forward(input_, &wide_out_);
  deep_->Forward(input_, &deep_out_);
  logits->Resize(batch.batch_size, 1);
  for (size_t b = 0; b < batch.batch_size; ++b) {
    logits->at(b, 0) = wide_out_.at(b, 0) + deep_out_.at(b, 0);
  }
}

double WdlModel::TrainStep(const Batch& batch) {
  Forward(batch, &logits_);
  const double loss =
      BceWithLogitsLoss::Compute(logits_, batch.labels, &grad_logits_);

  optimizer_->ZeroGrad();
  // d logit = d wide + d deep, so both branches see grad_logits_.
  wide_->Backward(grad_logits_, &grad_wide_in_);
  deep_->Backward(grad_logits_, &grad_deep_in_);
  optimizer_->Step(config_.dense_lr);

  // Embedding gradient = sum of both branches' input gradients, truncated
  // to the embedding columns.
  const size_t emb_cols = config_.num_fields * config_.emb_dim;
  grad_emb_.Resize(batch.batch_size, emb_cols);
  for (size_t b = 0; b < batch.batch_size; ++b) {
    const float* gw = grad_wide_in_.row(b);
    const float* gd = grad_deep_in_.row(b);
    float* ge = grad_emb_.row(b);
    for (size_t i = 0; i < emb_cols; ++i) ge[i] = gw[i] + gd[i];
  }
  emb_layer_.Backward(batch, grad_emb_.data(), emb_cols, config_.emb_lr,
                      /*reuse_staged_ids=*/true);
  store_->Tick();
  return loss;
}

void WdlModel::Predict(const Batch& batch, std::vector<float>* logits) {
  Forward(batch, &logits_);
  logits->assign(logits_.data(), logits_.data() + batch.batch_size);
}

size_t WdlModel::DenseParameters() const {
  return wide_->NumParameters() + deep_->NumParameters();
}

}  // namespace cafe
