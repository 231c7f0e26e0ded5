#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace cafe {
namespace {

// Sum-of-outputs scalar loss used for finite-difference checks: with
// L = sum(out), dL/dout = 1 everywhere, so Backward(ones) must produce
// dL/dinput and parameter grads we can compare against (L(x+h)-L(x-h))/2h.
double SumForward(Layer* layer, const Tensor& in) {
  Tensor out;
  layer->Forward(in, &out);
  double total = 0.0;
  for (size_t i = 0; i < out.size(); ++i) total += out.data()[i];
  return total;
}

void CheckInputGradient(Layer* layer, Tensor& in, double tolerance = 2e-2) {
  Tensor out, ones, grad_in;
  layer->Forward(in, &out);
  ones.Resize(out.rows(), out.cols());
  ones.Fill(1.0f);
  layer->Backward(ones, &grad_in);

  const float h = 1e-2f;
  for (size_t i = 0; i < in.size(); i += std::max<size_t>(1, in.size() / 17)) {
    const float saved = in.data()[i];
    in.data()[i] = saved + h;
    const double up = SumForward(layer, in);
    in.data()[i] = saved - h;
    const double down = SumForward(layer, in);
    in.data()[i] = saved;
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(grad_in.data()[i], numeric, tolerance) << "input index " << i;
  }
  // Restore caches to the unperturbed point.
  layer->Forward(in, &out);
}

void CheckParamGradients(Layer* layer, Tensor& in, double tolerance = 2e-2) {
  Tensor out, ones, grad_in;
  std::vector<Param> params;
  layer->CollectParams(&params);
  for (Param& p : params) {
    std::fill(p.grad, p.grad + p.size, 0.0f);
  }
  layer->Forward(in, &out);
  ones.Resize(out.rows(), out.cols());
  ones.Fill(1.0f);
  layer->Backward(ones, &grad_in);

  const float h = 1e-2f;
  for (const Param& p : params) {
    for (size_t i = 0; i < p.size; i += std::max<size_t>(1, p.size / 13)) {
      const float saved = p.value[i];
      p.value[i] = saved + h;
      const double up = SumForward(layer, in);
      p.value[i] = saved - h;
      const double down = SumForward(layer, in);
      p.value[i] = saved;
      const double numeric = (up - down) / (2.0 * h);
      EXPECT_NEAR(p.grad[i], numeric, tolerance) << "param index " << i;
    }
  }
  layer->Forward(in, &out);
}

Tensor RandomTensor(size_t rows, size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.UniformFloat(-1.0f, 1.0f);
  }
  return t;
}

// ---------------------------------------------------------------- Tensor --

TEST(TensorTest, ShapeAndAccess) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.row(1)[2], 5.0f);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(2, 2);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, ResizeAndFill) {
  Tensor t;
  t.Resize(2, 5);
  t.Fill(3.0f);
  EXPECT_FLOAT_EQ(t.at(1, 4), 3.0f);
  t.Zero();
  EXPECT_FLOAT_EQ(t.at(1, 4), 0.0f);
}

// ---------------------------------------------------------------- Linear --

TEST(LinearTest, ForwardComputesAffineMap) {
  Rng rng(1);
  Linear linear(2, 1, rng);
  linear.weight() = {2.0f, -3.0f};
  linear.bias() = {0.5f};
  Tensor in(1, 2);
  in.at(0, 0) = 1.0f;
  in.at(0, 1) = 4.0f;
  Tensor out;
  linear.Forward(in, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f - 12.0f + 0.5f);
}

TEST(LinearTest, InputGradientMatchesFiniteDifference) {
  Rng rng(2);
  Linear linear(5, 3, rng);
  Tensor in = RandomTensor(4, 5, rng);
  CheckInputGradient(&linear, in);
}

TEST(LinearTest, ParamGradientsMatchFiniteDifference) {
  Rng rng(3);
  Linear linear(4, 2, rng);
  Tensor in = RandomTensor(3, 4, rng);
  CheckParamGradients(&linear, in);
}

TEST(LinearTest, NumParameters) {
  Rng rng(4);
  Linear linear(7, 3, rng);
  EXPECT_EQ(linear.NumParameters(), 7u * 3u + 3u);
}

// ----------------------------------------------------------- Activations --

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu;
  Tensor in(1, 4);
  in.at(0, 0) = -1.0f;
  in.at(0, 1) = 0.0f;
  in.at(0, 2) = 2.0f;
  in.at(0, 3) = -0.5f;
  Tensor out;
  relu.Forward(in, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(out.at(0, 3), 0.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  Relu relu;
  Tensor in(1, 2);
  in.at(0, 0) = -1.0f;
  in.at(0, 1) = 3.0f;
  Tensor out, grad_out(1, 2), grad_in;
  relu.Forward(in, &out);
  grad_out.Fill(5.0f);
  relu.Backward(grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in.at(0, 1), 5.0f);
}

TEST(SigmoidTest, ForwardValues) {
  Sigmoid sigmoid;
  Tensor in(1, 3);
  in.at(0, 0) = 0.0f;
  in.at(0, 1) = 100.0f;
  in.at(0, 2) = -100.0f;
  Tensor out;
  sigmoid.Forward(in, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.5f);
  EXPECT_NEAR(out.at(0, 1), 1.0f, 1e-6);
  EXPECT_NEAR(out.at(0, 2), 0.0f, 1e-6);
}

TEST(SigmoidTest, GradientMatchesFiniteDifference) {
  Rng rng(5);
  Sigmoid sigmoid;
  Tensor in = RandomTensor(2, 3, rng);
  CheckInputGradient(&sigmoid, in, 1e-3);
}

TEST(SigmoidScalarTest, SymmetricAndStable) {
  EXPECT_FLOAT_EQ(SigmoidScalar(0.0f), 0.5f);
  EXPECT_NEAR(SigmoidScalar(3.0f) + SigmoidScalar(-3.0f), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(SigmoidScalar(1000.0f)));
  EXPECT_FALSE(std::isnan(SigmoidScalar(-1000.0f)));
}

// ------------------------------------------------------------------- MLP --

TEST(MlpTest, InputGradientMatchesFiniteDifference) {
  Rng rng(6);
  Mlp mlp({6, 8, 4, 1}, rng);
  Tensor in = RandomTensor(3, 6, rng);
  CheckInputGradient(&mlp, in);
}

TEST(MlpTest, ParamGradientsMatchFiniteDifference) {
  Rng rng(7);
  Mlp mlp({4, 5, 1}, rng);
  Tensor in = RandomTensor(2, 4, rng);
  CheckParamGradients(&mlp, in, 3e-2);
}

TEST(MlpTest, NumParametersSumsLayers) {
  Rng rng(8);
  Mlp mlp({3, 5, 2}, rng);
  EXPECT_EQ(mlp.NumParameters(), (3u * 5 + 5) + (5u * 2 + 2));
}

TEST(MlpTest, OutputShape) {
  Rng rng(9);
  Mlp mlp({10, 6, 1}, rng);
  Tensor in = RandomTensor(7, 10, rng);
  Tensor out;
  mlp.Forward(in, &out);
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 1u);
}

// ------------------------------------------------------------------ Loss --

TEST(BceLossTest, PointLossKnownValues) {
  // logit 0 -> loss log(2) for either label.
  EXPECT_NEAR(BceWithLogitsLoss::PointLoss(0.0f, 1.0f), std::log(2.0), 1e-6);
  EXPECT_NEAR(BceWithLogitsLoss::PointLoss(0.0f, 0.0f), std::log(2.0), 1e-6);
  // Confident correct prediction -> near-zero loss.
  EXPECT_LT(BceWithLogitsLoss::PointLoss(10.0f, 1.0f), 1e-4);
  // Confident wrong prediction -> ~|logit|.
  EXPECT_NEAR(BceWithLogitsLoss::PointLoss(10.0f, 0.0f), 10.0, 1e-3);
}

TEST(BceLossTest, StableAtExtremeLogits) {
  EXPECT_FALSE(std::isnan(BceWithLogitsLoss::PointLoss(500.0f, 0.0f)));
  EXPECT_FALSE(std::isnan(BceWithLogitsLoss::PointLoss(-500.0f, 1.0f)));
}

TEST(BceLossTest, GradientIsSigmoidMinusLabelOverN) {
  Tensor logits(2, 1);
  logits.at(0, 0) = 1.2f;
  logits.at(1, 0) = -0.4f;
  std::vector<float> labels{1.0f, 0.0f};
  Tensor grad;
  BceWithLogitsLoss::Compute(logits, labels.data(), &grad);
  EXPECT_NEAR(grad.at(0, 0), (SigmoidScalar(1.2f) - 1.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(grad.at(1, 0), (SigmoidScalar(-0.4f) - 0.0f) / 2.0f, 1e-6);
}

TEST(BceLossTest, GradientMatchesFiniteDifference) {
  Tensor logits(3, 1);
  logits.at(0, 0) = 0.3f;
  logits.at(1, 0) = -1.0f;
  logits.at(2, 0) = 2.0f;
  std::vector<float> labels{1.0f, 0.0f, 0.0f};
  Tensor grad;
  BceWithLogitsLoss::Compute(logits, labels.data(), &grad);
  const float h = 1e-3f;
  for (size_t i = 0; i < 3; ++i) {
    Tensor up = logits, down = logits;
    up.at(i, 0) += h;
    down.at(i, 0) -= h;
    Tensor unused;
    const double lu = BceWithLogitsLoss::Compute(up, labels.data(), &unused);
    const double ld = BceWithLogitsLoss::Compute(down, labels.data(), &unused);
    EXPECT_NEAR(grad.at(i, 0), (lu - ld) / (2.0 * h), 1e-4);
  }
}

// ------------------------------------------------------------ Optimizers --

TEST(OptimizerTest, SgdAppliesPlainStep) {
  std::vector<float> value{1.0f, 2.0f};
  std::vector<float> grad{0.5f, -1.0f};
  SgdOptimizer opt;
  opt.Register({{value.data(), grad.data(), 2}});
  opt.Step(0.1f);
  EXPECT_FLOAT_EQ(value[0], 1.0f - 0.05f);
  EXPECT_FLOAT_EQ(value[1], 2.0f + 0.1f);
}

TEST(OptimizerTest, ZeroGradClears) {
  std::vector<float> value{1.0f};
  std::vector<float> grad{9.0f};
  SgdOptimizer opt;
  opt.Register({{value.data(), grad.data(), 1}});
  opt.ZeroGrad();
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
}

TEST(OptimizerTest, AdagradShrinksEffectiveStep) {
  std::vector<float> value{0.0f};
  std::vector<float> grad{1.0f};
  AdagradOptimizer opt;
  opt.Register({{value.data(), grad.data(), 1}});
  opt.Step(1.0f);
  const float first_step = -value[0];
  const float before = value[0];
  opt.Step(1.0f);
  const float second_step = before - value[0];
  EXPECT_GT(first_step, second_step);  // accumulated curvature shrinks steps
}

TEST(OptimizerTest, AdamFirstStepApproachesLr) {
  std::vector<float> value{0.0f};
  std::vector<float> grad{0.3f};
  AdamOptimizer opt;
  opt.Register({{value.data(), grad.data(), 1}});
  opt.Step(0.01f);
  // Bias-corrected Adam's first step has magnitude ~lr regardless of grad.
  EXPECT_NEAR(std::fabs(value[0]), 0.01f, 1e-3);
}

TEST(OptimizerTest, FactoryKnowsAllNames) {
  EXPECT_NE(MakeOptimizer("sgd"), nullptr);
  EXPECT_NE(MakeOptimizer("adagrad"), nullptr);
  EXPECT_NE(MakeOptimizer("adam"), nullptr);
  EXPECT_EQ(MakeOptimizer("lamb"), nullptr);
}

// Parameterized sanity: every optimizer decreases a simple quadratic.
class OptimizerConvergenceSweep
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerConvergenceSweep, MinimizesQuadratic) {
  auto opt = MakeOptimizer(GetParam());
  ASSERT_NE(opt, nullptr);
  std::vector<float> value{5.0f, -3.0f};
  std::vector<float> grad{0.0f, 0.0f};
  opt->Register({{value.data(), grad.data(), 2}});
  // Adagrad's effective step decays as 1/sqrt(sum g^2); give it a larger
  // nominal rate so all three optimizers converge within the iteration cap.
  const float lr = std::string(GetParam()) == "adagrad" ? 0.5f : 0.05f;
  for (int iter = 0; iter < 2000; ++iter) {
    grad[0] = 2.0f * value[0];  // d/dx of x^2
    grad[1] = 2.0f * value[1];
    opt->Step(lr);
  }
  EXPECT_NEAR(value[0], 0.0f, 0.1f);
  EXPECT_NEAR(value[1], 0.0f, 0.1f);
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergenceSweep,
                         ::testing::Values("sgd", "adagrad", "adam"));

}  // namespace
}  // namespace cafe
