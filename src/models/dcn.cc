#include "models/dcn.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "nn/loss.h"

namespace cafe {

StatusOr<std::unique_ptr<DcnModel>> DcnModel::Create(const ModelConfig& config,
                                                     EmbeddingStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("dcn: embedding store is required");
  }
  if (store->dim() != config.emb_dim) {
    return Status::InvalidArgument("dcn: store dim != config.emb_dim");
  }
  if (config.num_fields == 0) {
    return Status::InvalidArgument("dcn: num_fields must be positive");
  }
  if (config.num_cross_layers == 0) {
    return Status::InvalidArgument("dcn: needs at least one cross layer");
  }
  return std::unique_ptr<DcnModel>(new DcnModel(config, store));
}

DcnModel::DcnModel(const ModelConfig& config, EmbeddingStore* store)
    : config_(config),
      store_(store),
      emb_layer_(store, config.num_fields),
      rng_(config.seed) {
  const size_t d_in = InputSize();
  const float bound = 1.0f / std::sqrt(static_cast<float>(d_in));
  for (size_t l = 0; l < config_.num_cross_layers; ++l) {
    cross_w_.emplace_back(d_in);
    cross_b_.emplace_back(d_in, 0.0f);
    cross_w_grad_.emplace_back(d_in, 0.0f);
    cross_b_grad_.emplace_back(d_in, 0.0f);
    for (float& w : cross_w_.back()) w = rng_.UniformFloat(-bound, bound);
  }

  // Deep tower without the final projection (it joins the cross output).
  std::vector<size_t> deep_sizes;
  deep_sizes.push_back(d_in);
  deep_sizes.insert(deep_sizes.end(), config_.top_hidden.begin(),
                    config_.top_hidden.end());
  if (deep_sizes.size() == 1) deep_sizes.push_back(d_in);
  deep_ = std::make_unique<Mlp>(deep_sizes, rng_);
  final_ = std::make_unique<Linear>(d_in + DeepOutSize(), 1, rng_);

  optimizer_ = MakeOptimizer(config_.dense_optimizer);
  CAFE_CHECK(optimizer_ != nullptr)
      << "unknown optimizer: " << config_.dense_optimizer;
  std::vector<Param> params;
  CollectDenseParams(&params);
  optimizer_->Register(params);
}

void DcnModel::CollectDenseParams(std::vector<Param>* out) {
  for (size_t l = 0; l < config_.num_cross_layers; ++l) {
    out->push_back({cross_w_[l].data(), cross_w_grad_[l].data(),
                    cross_w_[l].size()});
    out->push_back({cross_b_[l].data(), cross_b_grad_[l].data(),
                    cross_b_[l].size()});
  }
  deep_->CollectParams(out);
  final_->CollectParams(out);
}

void DcnModel::BuildInput(const Batch& batch) {
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

void DcnModel::Forward(const Batch& batch, Tensor* logits) {
  CAFE_DCHECK(batch.num_fields == config_.num_fields);
  BuildInput(batch);
  const size_t d_in = InputSize();
  const size_t layers = config_.num_cross_layers;

  cross_x_.resize(layers + 1);
  cross_x_[0] = input_;
  for (size_t l = 0; l < layers; ++l) {
    cross_x_[l + 1].Resize(batch.batch_size, d_in);
    const float* w = cross_w_[l].data();
    const float* bias = cross_b_[l].data();
    for (size_t b = 0; b < batch.batch_size; ++b) {
      const float* x0 = input_.row(b);
      const float* xl = cross_x_[l].row(b);
      float* xn = cross_x_[l + 1].row(b);
      float s = 0.0f;
      for (size_t i = 0; i < d_in; ++i) s += xl[i] * w[i];
      for (size_t i = 0; i < d_in; ++i) xn[i] = x0[i] * s + bias[i] + xl[i];
    }
  }

  deep_->Forward(input_, &deep_out_);

  combined_.Resize(batch.batch_size, d_in + DeepOutSize());
  for (size_t b = 0; b < batch.batch_size; ++b) {
    float* row = combined_.row(b);
    std::memcpy(row, cross_x_[layers].row(b), d_in * sizeof(float));
    std::memcpy(row + d_in, deep_out_.row(b),
                DeepOutSize() * sizeof(float));
  }
  final_->Forward(combined_, logits);
}

double DcnModel::TrainStep(const Batch& batch) {
  Forward(batch, &logits_);
  const double loss =
      BceWithLogitsLoss::Compute(logits_, batch.labels, &grad_logits_);

  optimizer_->ZeroGrad();
  final_->Backward(grad_logits_, &grad_combined_);

  const size_t d_in = InputSize();
  const size_t layers = config_.num_cross_layers;

  // Split the combined gradient into cross-output and deep-output parts.
  Tensor grad_cross(batch.batch_size, d_in);
  grad_deep_out_.Resize(batch.batch_size, DeepOutSize());
  for (size_t b = 0; b < batch.batch_size; ++b) {
    const float* g = grad_combined_.row(b);
    std::memcpy(grad_cross.row(b), g, d_in * sizeof(float));
    std::memcpy(grad_deep_out_.row(b), g + d_in,
                DeepOutSize() * sizeof(float));
  }

  // Cross-network backward. With x_{l+1} = x0*s + b + x_l, s = xl.w:
  //   dL/dw   += (g . x0) * x_l
  //   dL/db   += g
  //   dL/dx_l  = g + w * (g . x0)
  //   dL/dx_0 += g * s      (accumulated across layers)
  grad_x0_.Resize(batch.batch_size, d_in);
  grad_x0_.Zero();
  for (size_t l = layers; l-- > 0;) {
    const float* w = cross_w_[l].data();
    float* gw = cross_w_grad_[l].data();
    float* gb = cross_b_grad_[l].data();
    for (size_t b = 0; b < batch.batch_size; ++b) {
      const float* x0 = input_.row(b);
      const float* xl = cross_x_[l].row(b);
      float* g = grad_cross.row(b);
      float* gx0 = grad_x0_.row(b);
      float s = 0.0f;
      float g_dot_x0 = 0.0f;
      for (size_t i = 0; i < d_in; ++i) {
        s += xl[i] * w[i];
        g_dot_x0 += g[i] * x0[i];
      }
      for (size_t i = 0; i < d_in; ++i) {
        gw[i] += g_dot_x0 * xl[i];
        gb[i] += g[i];
        gx0[i] += g[i] * s;
        g[i] = g[i] + w[i] * g_dot_x0;  // becomes grad wrt x_l in place
      }
    }
  }
  // After the loop grad_cross holds dL/dx_0 through the cross chain.
  deep_->Backward(grad_deep_out_, &grad_deep_in_);

  optimizer_->Step(config_.dense_lr);

  // Total x0 gradient: cross chain + accumulated x0 terms + deep tower.
  const size_t emb_cols = config_.num_fields * config_.emb_dim;
  grad_emb_.Resize(batch.batch_size, emb_cols);
  for (size_t b = 0; b < batch.batch_size; ++b) {
    const float* gc = grad_cross.row(b);
    const float* gx0 = grad_x0_.row(b);
    const float* gd = grad_deep_in_.row(b);
    float* ge = grad_emb_.row(b);
    for (size_t i = 0; i < emb_cols; ++i) ge[i] = gc[i] + gx0[i] + gd[i];
  }
  emb_layer_.Backward(batch, grad_emb_.data(), emb_cols, config_.emb_lr,
                      /*reuse_staged_ids=*/true);
  store_->Tick();
  return loss;
}

void DcnModel::Predict(const Batch& batch, std::vector<float>* logits) {
  Forward(batch, &logits_);
  logits->assign(logits_.data(), logits_.data() + batch.batch_size);
}

size_t DcnModel::DenseParameters() const {
  size_t total = deep_->NumParameters() + final_->NumParameters();
  for (size_t l = 0; l < cross_w_.size(); ++l) {
    total += cross_w_[l].size() + cross_b_[l].size();
  }
  return total;
}

}  // namespace cafe
