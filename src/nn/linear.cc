#include "nn/linear.h"

#include <cmath>

#include "common/simd.h"

namespace cafe {

Linear::Linear(size_t in_features, size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(in_features * out_features),
      bias_(out_features, 0.0f),
      weight_grad_(in_features * out_features, 0.0f),
      bias_grad_(out_features, 0.0f) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  for (float& w : weight_) w = rng.UniformFloat(-bound, bound);
}

void Linear::Forward(const Tensor& in, Tensor* out) {
  CAFE_DCHECK(in.cols() == in_features_)
      << "Linear expects " << in_features_ << " inputs, got " << in.cols();
  input_ = &in;
  out->Resize(in.rows(), out_features_);
  simd::LinearForward(in.data(), weight_.data(), bias_.data(), in.rows(),
                      in_features_, out_features_, out->data());
}

void Linear::Backward(const Tensor& grad_out, Tensor* grad_in) {
  CAFE_DCHECK(input_ != nullptr && grad_out.rows() == input_->rows());
  CAFE_DCHECK(grad_out.cols() == out_features_);
  grad_in->Resize(grad_out.rows(), in_features_);
  simd::LinearBackward(input_->data(), weight_.data(), grad_out.data(),
                       grad_out.rows(), in_features_, out_features_,
                       grad_in->data(), weight_grad_.data(),
                       bias_grad_.data());
}

void Linear::CollectParams(std::vector<Param>* out) {
  out->push_back({weight_.data(), weight_grad_.data(), weight_.size()});
  out->push_back({bias_.data(), bias_grad_.data(), bias_.size()});
}

}  // namespace cafe
