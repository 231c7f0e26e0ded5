#ifndef CAFE_NN_LOSS_H_
#define CAFE_NN_LOSS_H_

#include "nn/tensor.h"

namespace cafe {

/// Binary cross-entropy computed from raw logits (numerically stable
/// log-sum-exp form, equivalent to PyTorch's BCEWithLogitsLoss):
///   loss(z, y) = max(z, 0) - z*y + log(1 + exp(-|z|))
///   dloss/dz   = sigmoid(z) - y
class BceWithLogitsLoss {
 public:
  /// `logits` is (batch, 1); `labels` points at batch entries in {0, 1}.
  /// Returns the mean loss and fills `grad` (batch, 1) with d(mean loss)/dz
  /// (i.e. already divided by the batch size).
  static double Compute(const Tensor& logits, const float* labels,
                        Tensor* grad);

  /// Loss of one (logit, label) pair; used by evaluation (no gradient).
  static double PointLoss(float logit, float label);
};

}  // namespace cafe

#endif  // CAFE_NN_LOSS_H_
