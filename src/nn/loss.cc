#include "nn/loss.h"

#include <cmath>

#include "common/logging.h"
#include "nn/activation.h"

namespace cafe {

double BceWithLogitsLoss::PointLoss(float logit, float label) {
  const double z = logit;
  const double y = label;
  return std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::fabs(z)));
}

double BceWithLogitsLoss::Compute(const Tensor& logits, const float* labels,
                                  Tensor* grad) {
  CAFE_DCHECK(logits.cols() == 1);
  CAFE_DCHECK(labels != nullptr || logits.rows() == 0);
  const size_t n = logits.rows();
  grad->Resize(n, 1);
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (size_t b = 0; b < n; ++b) {
    const float z = logits.at(b, 0);
    const float y = labels[b];
    total += PointLoss(z, y);
    grad->at(b, 0) = (SigmoidScalar(z) - y) * inv_n;
  }
  return total / static_cast<double>(n);
}

}  // namespace cafe
