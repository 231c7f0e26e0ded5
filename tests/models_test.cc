#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.h"
#include "embed/full_embedding.h"
#include "io/serialize.h"
#include "models/dcn.h"
#include "models/dlrm.h"
#include "models/model.h"
#include "models/wdl.h"
#include "nn/loss.h"

namespace cafe {
namespace {

constexpr size_t kFields = 3;
constexpr uint32_t kDim = 4;
constexpr uint32_t kNumerical = 2;
constexpr uint64_t kFeatures = 50;

struct TestBatchData {
  std::vector<uint32_t> cats;
  std::vector<float> nums;
  std::vector<float> labels;

  Batch View(size_t batch_size) const {
    Batch b;
    b.batch_size = batch_size;
    b.num_fields = kFields;
    b.num_numerical = kNumerical;
    b.categorical = cats.data();
    b.numerical = nums.data();
    b.labels = labels.data();
    return b;
  }
};

TestBatchData MakeBatchData(size_t batch_size, uint64_t seed) {
  Rng rng(seed);
  TestBatchData data;
  for (size_t s = 0; s < batch_size; ++s) {
    for (size_t f = 0; f < kFields; ++f) {
      data.cats.push_back(static_cast<uint32_t>(rng.Uniform(kFeatures)));
    }
    for (uint32_t j = 0; j < kNumerical; ++j) {
      data.nums.push_back(rng.UniformFloat(-1.0f, 1.0f));
    }
    data.labels.push_back(rng.Bernoulli(0.4) ? 1.0f : 0.0f);
  }
  return data;
}

ModelConfig MakeModelConfig() {
  ModelConfig config;
  config.num_fields = kFields;
  config.emb_dim = kDim;
  config.num_numerical = kNumerical;
  config.bottom_hidden = {6};
  config.top_hidden = {8};
  config.emb_lr = 0.05f;
  config.dense_lr = 0.05f;
  config.dense_optimizer = "sgd";
  config.seed = 31;
  return config;
}

std::unique_ptr<FullEmbedding> MakeStore() {
  EmbeddingConfig config;
  config.total_features = kFeatures;
  config.dim = kDim;
  config.compression_ratio = 1.0;
  config.seed = 5;
  auto store = FullEmbedding::Create(config);
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

using ModelFactory = StatusOr<std::unique_ptr<RecModel>> (*)(
    const ModelConfig&, EmbeddingStore*);

template <typename M>
StatusOr<std::unique_ptr<RecModel>> Factory(const ModelConfig& config,
                                            EmbeddingStore* store) {
  auto model = M::Create(config, store);
  if (!model.ok()) return model.status();
  return std::unique_ptr<RecModel>(std::move(model).value());
}

struct ModelCase {
  const char* name;
  ModelFactory factory;
};

class ModelSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelSweep, RejectsNullStore) {
  EXPECT_FALSE(GetParam().factory(MakeModelConfig(), nullptr).ok());
}

TEST_P(ModelSweep, RejectsDimMismatch) {
  auto store = MakeStore();
  ModelConfig config = MakeModelConfig();
  config.emb_dim = kDim + 1;
  EXPECT_FALSE(GetParam().factory(config, store.get()).ok());
}

TEST_P(ModelSweep, PredictProducesFiniteLogits) {
  auto store = MakeStore();
  auto model = GetParam().factory(MakeModelConfig(), store.get());
  ASSERT_TRUE(model.ok());
  const TestBatchData data = MakeBatchData(16, 3);
  std::vector<float> logits;
  (*model)->Predict(data.View(16), &logits);
  ASSERT_EQ(logits.size(), 16u);
  for (float l : logits) EXPECT_TRUE(std::isfinite(l));
}

TEST_P(ModelSweep, PredictIsDeterministic) {
  auto store = MakeStore();
  auto model = GetParam().factory(MakeModelConfig(), store.get());
  ASSERT_TRUE(model.ok());
  const TestBatchData data = MakeBatchData(8, 4);
  std::vector<float> a, b;
  (*model)->Predict(data.View(8), &a);
  (*model)->Predict(data.View(8), &b);
  EXPECT_EQ(a, b);
}

TEST_P(ModelSweep, TrainStepReducesLossOnFixedBatch) {
  // Repeatedly stepping on one batch must drive its loss down
  // (overfitting a tiny batch is the classic backprop sanity check).
  auto store = MakeStore();
  ModelConfig config = MakeModelConfig();
  config.emb_lr = 0.02f;
  config.dense_lr = 0.02f;
  // Adagrad: adaptive steps let even the pure-dot DLRM memorize the batch
  // within the iteration cap (plain SGD needs far more steps there).
  config.dense_optimizer = "adagrad";
  auto model = GetParam().factory(config, store.get());
  ASSERT_TRUE(model.ok());
  const TestBatchData data = MakeBatchData(16, 5);
  const Batch batch = data.View(16);
  const double first = (*model)->TrainStep(batch);
  double last = first;
  for (int i = 0; i < 500; ++i) last = (*model)->TrainStep(batch);
  EXPECT_LT(last, first * 0.5) << GetParam().name
                               << ": loss should shrink on a fixed batch";
}

TEST_P(ModelSweep, EmbeddingGradientMatchesFiniteDifference) {
  // Capture the gradient routed into ApplyGradient by training one step
  // with emb_lr = 1 (row_after = row_before - grad), then compare with a
  // central finite difference evaluated on a SECOND, identically seeded
  // model/store pair still at the pre-step point.
  ModelConfig config = MakeModelConfig();
  config.dense_lr = 0.0f;  // freeze dense params: isolate embedding grads
  config.emb_lr = 1.0f;

  auto store1 = MakeStore();
  auto model1 = GetParam().factory(config, store1.get());
  ASSERT_TRUE(model1.ok());
  auto store2 = MakeStore();
  auto model2 = GetParam().factory(config, store2.get());
  ASSERT_TRUE(model2.ok());

  const TestBatchData data = MakeBatchData(4, 6);
  const Batch batch = data.View(4);
  const uint32_t probe_id = data.cats[0];

  std::vector<float> before(kDim), after(kDim);
  store1->Lookup(probe_id, before.data());
  (*model1)->TrainStep(batch);
  store1->Lookup(probe_id, after.data());
  std::vector<float> grad(kDim);
  for (uint32_t i = 0; i < kDim; ++i) grad[i] = before[i] - after[i];

  auto batch_loss = [&]() {
    std::vector<float> logits;
    (*model2)->Predict(batch, &logits);
    double total = 0;
    for (size_t s = 0; s < logits.size(); ++s) {
      total += BceWithLogitsLoss::PointLoss(logits[s], data.labels[s]);
    }
    return total / static_cast<double>(logits.size());
  };

  // ApplyGradient subtracts lr*g, so pushing g = -h/+2h bumps the probe
  // coordinate to +h then -h around the original value.
  const float h = 1e-2f;
  std::vector<float> bump(kDim, 0.0f);
  bump[0] = -h;
  store2->ApplyGradient(probe_id, bump.data(), 1.0f);
  const double up = batch_loss();
  bump[0] = 2 * h;
  store2->ApplyGradient(probe_id, bump.data(), 1.0f);
  const double down = batch_loss();
  const double numeric = (up - down) / (2.0 * h);

  EXPECT_NEAR(grad[0], numeric, 5e-3) << GetParam().name;
}

// Everything 20 Adagrad TrainSteps leave behind, as bytes: dense weights,
// optimizer state, embedding rows, and the logits of a held-out batch.
std::string TrainedStateBytes(ModelFactory factory) {
  auto store = MakeStore();
  ModelConfig config = MakeModelConfig();
  config.top_hidden = {37, 19};  // widths off the 16-lane blocks
  config.dense_optimizer = "adagrad";
  auto made = factory(config, store.get());
  EXPECT_TRUE(made.ok());
  RecModel* model = made->get();
  for (uint64_t step = 0; step < 20; ++step) {
    const TestBatchData data = MakeBatchData(33, 100 + step);
    model->TrainStep(data.View(33));
  }
  io::Writer writer;
  std::vector<Param> params;
  model->CollectDenseParams(&params);
  for (const Param& p : params) writer.WriteBytes(p.value, p.size * 4);
  EXPECT_TRUE(model->optimizer()->SaveState(&writer).ok());
  EXPECT_TRUE(store->SaveState(&writer).ok());
  const TestBatchData eval = MakeBatchData(17, 999);
  std::vector<float> logits;
  model->Predict(eval.View(17), &logits);
  writer.WriteBytes(logits.data(), logits.size() * 4);
  return writer.buffer();
}

// The vector dense tier trains the same model as the scalar reference, byte
// for byte (the DLRM interaction included).
TEST_P(ModelSweep, TrainingIsBitIdenticalAcrossSimdTiers) {
  simd::SetActiveTier(simd::Tier::kScalar);
  const std::string scalar = TrainedStateBytes(GetParam().factory);
  simd::ResetActiveTier();
  const std::string vector = TrainedStateBytes(GetParam().factory);
  EXPECT_TRUE(scalar == vector)
      << GetParam().name << " differs on " << simd::ActiveTierName();
}

// Weights written through the CollectDenseParams views (how checkpoints and
// serving replicas load them) take effect on the very next Predict: a model
// holding any derived copy of its weights would still answer with its own.
TEST_P(ModelSweep, WeightsWrittenThroughParamViewsReachNextPredict) {
  auto store = MakeStore();
  ModelConfig config = MakeModelConfig();
  auto source = GetParam().factory(config, store.get());
  config.seed += 1;
  auto target = GetParam().factory(config, store.get());
  ASSERT_TRUE(source.ok() && target.ok());
  const TestBatchData data = MakeBatchData(19, 12);
  std::vector<float> want, before, after;
  (*source)->Predict(data.View(19), &want);
  (*target)->Predict(data.View(19), &before);
  ASSERT_NE(want, before);
  std::vector<Param> from, to;
  (*source)->CollectDenseParams(&from);
  (*target)->CollectDenseParams(&to);
  ASSERT_EQ(from.size(), to.size());
  for (size_t b = 0; b < from.size(); ++b) {
    ASSERT_EQ(from[b].size, to[b].size);
    std::memcpy(to[b].value, from[b].value, from[b].size * sizeof(float));
  }
  (*target)->Predict(data.View(19), &after);
  EXPECT_EQ(0, std::memcmp(after.data(), want.data(), want.size() * 4));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelSweep,
    ::testing::Values(ModelCase{"dlrm", &Factory<DlrmModel>},
                      ModelCase{"wdl", &Factory<WdlModel>},
                      ModelCase{"dcn", &Factory<DcnModel>}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return info.param.name;
    });

TEST(DlrmModelTest, WorksWithoutNumericalFeatures) {
  EmbeddingConfig store_config;
  store_config.total_features = kFeatures;
  store_config.dim = kDim;
  auto store = FullEmbedding::Create(store_config);
  ASSERT_TRUE(store.ok());
  ModelConfig config = MakeModelConfig();
  config.num_numerical = 0;
  auto model = DlrmModel::Create(config, store->get());
  ASSERT_TRUE(model.ok());
  TestBatchData data = MakeBatchData(8, 7);
  Batch batch = data.View(8);
  batch.num_numerical = 0;
  batch.numerical = nullptr;
  std::vector<float> logits;
  (*model)->Predict(batch, &logits);
  EXPECT_EQ(logits.size(), 8u);
  EXPECT_GT((*model)->TrainStep(batch), 0.0);
}

TEST(ModelInternalTest, LookupBatchGathersPerFieldRows) {
  auto store = MakeStore();
  TestBatchData data = MakeBatchData(4, 8);
  Tensor out;
  model_internal::LookupBatch(store.get(), data.View(4), &out);
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), kFields * kDim);
  std::vector<float> expected(kDim);
  store->Lookup(data.cats[1 * kFields + 2], expected.data());
  for (uint32_t i = 0; i < kDim; ++i) {
    EXPECT_FLOAT_EQ(out.at(1, 2 * kDim + i), expected[i]);
  }
}

TEST(ModelInternalTest, ApplyBatchGradientsRoutesPerField) {
  auto store = MakeStore();
  TestBatchData data = MakeBatchData(1, 9);
  const uint32_t id = data.cats[0];
  std::vector<float> before(kDim);
  store->Lookup(id, before.data());
  Tensor grad(1, kFields * kDim);
  grad.Fill(0.0f);
  grad.at(0, 0) = 2.0f;  // only field 0, coordinate 0; clipped to 1.0
  model_internal::ApplyBatchGradients(store.get(), data.View(1), grad, 0.5f);
  std::vector<float> after(kDim);
  store->Lookup(id, after.data());
  // ApplyBatchGradients clips components to [-1, 1] before the SGD step.
  EXPECT_FLOAT_EQ(after[0], before[0] - 0.5f);
  for (uint32_t i = 1; i < kDim; ++i) EXPECT_FLOAT_EQ(after[i], before[i]);
}

}  // namespace
}  // namespace cafe
