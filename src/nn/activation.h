#ifndef CAFE_NN_ACTIVATION_H_
#define CAFE_NN_ACTIVATION_H_

#include "nn/layer.h"

namespace cafe {

/// Elementwise max(0, x).
class Relu : public Layer {
 public:
  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  // The last Forward's output, the mask source (out > 0 <=> in > 0); it
  // must stay alive and unchanged until Backward, like the input (Layer).
  const Tensor* output_ = nullptr;
};

/// Elementwise logistic sigmoid. Models keep the final layer as a raw logit
/// and use BceWithLogitsLoss for stability; this layer exists for inference
/// paths and tests.
class Sigmoid : public Layer {
 public:
  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;

 private:
  Tensor cached_output_;
};

/// Scalar sigmoid helper.
float SigmoidScalar(float x);

}  // namespace cafe

#endif  // CAFE_NN_ACTIVATION_H_
