#ifndef CAFE_NN_LAYER_H_
#define CAFE_NN_LAYER_H_

#include <cstddef>
#include <vector>

#include "nn/tensor.h"

namespace cafe {

/// A view over one learnable parameter block and its gradient accumulator.
/// Optimizers iterate these; the pointed-to storage is owned by the layer
/// and must outlive the optimizer.
struct Param {
  float* value = nullptr;
  float* grad = nullptr;
  size_t size = 0;
};

/// Base class for dense NN layers. The contract is classic
/// define-by-run backprop:
///  - Forward(in, out) computes out and caches whatever it needs;
///  - Backward(grad_out, grad_in) consumes the cache from the most recent
///    Forward, accumulates parameter gradients, and fills grad_in
///    (d loss / d input).
/// One Forward must precede each Backward; layers are not reentrant.
/// Layers keep pointers, not copies: Forward's `in` (and the `out` it
/// wrote) must stay alive and unchanged until the matching Backward.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual void Forward(const Tensor& in, Tensor* out) = 0;
  virtual void Backward(const Tensor& grad_out, Tensor* grad_in) = 0;

  /// Appends this layer's parameter views to `out`. Default: no params.
  virtual void CollectParams(std::vector<Param>* out) {}

  /// Number of learnable scalars (for memory accounting). Default 0.
  virtual size_t NumParameters() const { return 0; }
};

}  // namespace cafe

#endif  // CAFE_NN_LAYER_H_
