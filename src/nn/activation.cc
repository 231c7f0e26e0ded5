#include "nn/activation.h"

#include <cmath>

namespace cafe {

float SigmoidScalar(float x) {
  // Branch keeps exp() argument non-positive for numerical safety.
  if (x >= 0.0f) {
    float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  float e = std::exp(x);
  return e / (1.0f + e);
}

void Relu::Forward(const Tensor& in, Tensor* out) {
  out->Resize(in.rows(), in.cols());
  const float* x = in.data();
  float* y = out->data();
  for (size_t i = 0; i < in.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  output_ = out;
}

void Relu::Backward(const Tensor& grad_out, Tensor* grad_in) {
  CAFE_DCHECK(output_ != nullptr && grad_out.size() == output_->size());
  grad_in->Resize(grad_out.rows(), grad_out.cols());
  const float* gy = grad_out.data();
  const float* y = output_->data();
  float* gx = grad_in->data();
  for (size_t i = 0; i < grad_out.size(); ++i) {
    gx[i] = y[i] > 0.0f ? gy[i] : 0.0f;
  }
}

void Sigmoid::Forward(const Tensor& in, Tensor* out) {
  out->Resize(in.rows(), in.cols());
  const float* x = in.data();
  float* y = out->data();
  for (size_t i = 0; i < in.size(); ++i) y[i] = SigmoidScalar(x[i]);
  cached_output_ = *out;
}

void Sigmoid::Backward(const Tensor& grad_out, Tensor* grad_in) {
  CAFE_DCHECK(grad_out.size() == cached_output_.size());
  grad_in->Resize(grad_out.rows(), grad_out.cols());
  const float* gy = grad_out.data();
  const float* y = cached_output_.data();
  float* gx = grad_in->data();
  for (size_t i = 0; i < grad_out.size(); ++i) {
    gx[i] = gy[i] * y[i] * (1.0f - y[i]);
  }
}

}  // namespace cafe
