#ifndef CAFE_NN_LINEAR_H_
#define CAFE_NN_LINEAR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "nn/layer.h"

namespace cafe {

/// Fully-connected layer: out = in * W^T + b, with W of shape
/// (out_features, in_features) stored row-major (each output neuron's
/// weights are contiguous, which makes both forward and backward walk
/// memory linearly).
class Linear : public Layer {
 public:
  /// Initializes W with Xavier/Glorot uniform (+-sqrt(6/(fan_in+fan_out)))
  /// and b with zeros, matching the paper's PyTorch defaults closely enough
  /// for convergence-shape purposes.
  Linear(size_t in_features, size_t out_features, Rng& rng);

  void Forward(const Tensor& in, Tensor* out) override;
  void Backward(const Tensor& grad_out, Tensor* grad_in) override;
  void CollectParams(std::vector<Param>* out) override;
  size_t NumParameters() const override {
    return weight_.size() + bias_.size();
  }

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

  /// Direct parameter access for tests.
  std::vector<float>& weight() { return weight_; }
  std::vector<float>& bias() { return bias_; }

 private:
  size_t in_features_;
  size_t out_features_;
  std::vector<float> weight_;       // (out, in) row-major
  std::vector<float> bias_;         // (out)
  std::vector<float> weight_grad_;
  std::vector<float> bias_grad_;
  const Tensor* input_ = nullptr;  // the last Forward's input (see Layer)
};

}  // namespace cafe

#endif  // CAFE_NN_LINEAR_H_
