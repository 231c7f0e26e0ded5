// Serving correctness: frozen snapshots must look up bit-identically to the
// live store, and an N-worker micro-batching InferenceServer must produce
// predictions bit-identical to single-thread batched evaluation on the same
// frozen model — however the batcher coalesces the requests. These tests
// are also the ThreadSanitizer workload for the concurrent server.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "data/synthetic.h"
#include "io/checkpoint.h"
#include "serve/frozen_store.h"
#include "serve/inference_server.h"
#include "serve/latency_recorder.h"
#include "train/model_factory.h"
#include "train/serving_pipeline.h"
#include "train/store_factory.h"
#include "train/trainer.h"

namespace cafe {
namespace {

constexpr uint64_t kFeatures = 5000;
constexpr uint32_t kDim = 8;

StoreFactoryContext MakeContext(double cr) {
  StoreFactoryContext context;
  context.embedding.total_features = kFeatures;
  context.embedding.dim = kDim;
  context.embedding.compression_ratio = cr;
  context.embedding.seed = 42;
  context.layout = FieldLayout({2000, 1500, 1000, 500});
  context.cafe.decay_interval = 10;
  context.ada.realloc_interval = 10;
  for (uint64_t id = 0; id < 400; ++id) {
    context.offline_hot_ids.push_back(id * 7 % kFeatures);
  }
  return context;
}

void TrainStream(EmbeddingStore* store, uint64_t seed, size_t batches) {
  Rng rng(seed);
  ZipfDistribution zipf(kFeatures, 1.2);
  std::vector<uint64_t> ids(64);
  std::vector<float> grads(64 * kDim);
  for (size_t k = 0; k < batches; ++k) {
    for (auto& id : ids) id = zipf.SampleIndex(rng);
    for (auto& g : grads) g = rng.UniformFloat(-0.5f, 0.5f);
    store->ApplyGradientBatch(ids.data(), ids.size(), grads.data(), 0.05f);
    store->Tick();
  }
}

struct ServingStoreCase {
  const char* name;
  double cr;
};

const ServingStoreCase kAllStores[] = {
    {"full", 1.0},  {"hash", 20.0},    {"qr", 10.0},    {"robe", 10.0},    {"ada", 2.0},
    {"mde", 2.0},   {"offline", 20.0}, {"cafe", 20.0},  {"cafe-ml", 20.0},
};

class FrozenStoreTest : public ::testing::TestWithParam<ServingStoreCase> {};

// Frozen lookups (scalar, packed batch, strided batch) must be byte-
// identical to the live store's lookups for every scheme.
TEST_P(FrozenStoreTest, FrozenLookupsMatchLiveStore) {
  auto store = MakeStore(GetParam().name, MakeContext(GetParam().cr));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  TrainStream(store->get(), /*seed=*/321, 40);

  auto frozen = FrozenStore::Wrap(store->get());
  EXPECT_EQ(frozen->dim(), kDim);
  EXPECT_EQ(frozen->MemoryBytes(), (*store)->MemoryBytes());
  EXPECT_EQ(frozen->Name(), (*store)->Name() + "-frozen");

  Rng rng(17);
  ZipfDistribution zipf(kFeatures, 1.2);
  constexpr size_t kProbe = 96;
  constexpr size_t kStride = kDim + 5;
  std::vector<uint64_t> ids(kProbe);
  std::vector<float> expected(kProbe * kDim);
  std::vector<float> packed(kProbe * kDim);
  std::vector<float> strided(kProbe * kStride);
  for (int round = 0; round < 10; ++round) {
    for (auto& id : ids) id = zipf.SampleIndex(rng);
    for (size_t i = 0; i < kProbe; ++i) {
      (*store)->Lookup(ids[i], expected.data() + i * kDim);
    }
    frozen->LookupBatch(ids.data(), kProbe, packed.data());
    EXPECT_EQ(std::memcmp(expected.data(), packed.data(),
                          expected.size() * sizeof(float)),
              0);
    frozen->LookupBatchConst(ids.data(), kProbe, strided.data(), kStride);
    for (size_t i = 0; i < kProbe; ++i) {
      EXPECT_EQ(std::memcmp(expected.data() + i * kDim,
                            strided.data() + i * kStride,
                            kDim * sizeof(float)),
                0)
          << "strided frozen lookup diverged at row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, FrozenStoreTest,
                         ::testing::ValuesIn(kAllStores),
                         [](const ::testing::TestParamInfo<ServingStoreCase>&
                                info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

std::unique_ptr<SyntheticCtrDataset> MakeServingDataset() {
  SyntheticDatasetConfig config;
  config.name = "serving-test";
  config.field_cardinalities = {3000, 2000, 1000, 500, 200, 50};
  config.num_numerical = 2;
  config.num_samples = 9000;
  config.num_days = 3;
  config.seed = 11;
  auto data = SyntheticCtrDataset::Generate(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

ModelConfig MakeServingModelConfig(const SyntheticCtrDataset& data) {
  ModelConfig config;
  config.num_fields = data.num_fields();
  config.emb_dim = kDim;
  config.num_numerical = data.config().num_numerical;
  config.seed = 1234;
  return config;
}

// The headline guarantee: an N-worker server with concurrent clients and
// micro-batch coalescing returns EXACTLY the logits of a single-thread
// batched evaluation pass over the same frozen model.
TEST(InferenceServerTest, ConcurrentPredictionsMatchSingleThreadEvaluation) {
  auto data = MakeServingDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();

  // Train cafe + dlrm, checkpoint, restore into a frozen serving stack.
  auto store = MakeStore("cafe", context);
  ASSERT_TRUE(store.ok());
  ModelConfig model_config = MakeServingModelConfig(*data);
  auto model = MakeModel("dlrm", model_config, store->get());
  ASSERT_TRUE(model.ok());
  TrainOptions train_options;
  train_options.batch_size = 128;
  TrainOnePass(model->get(), *data, train_options);
  const std::string path = ::testing::TempDir() + "cafe_serving_test.bin";
  ASSERT_TRUE(io::SaveCheckpoint(path, **store, model->get()).ok());

  auto serve_store = MakeStore("cafe", context);
  ASSERT_TRUE(serve_store.ok());
  ASSERT_TRUE(io::LoadCheckpoint(path, serve_store->get()).ok());
  auto frozen = FrozenStore::Adopt(std::move(*serve_store));
  FrozenStore* frozen_raw = frozen.get();

  // Single-thread reference: one restored replica, one big batched pass.
  auto reference = MakeModel("dlrm", model_config, frozen_raw);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(io::LoadCheckpoint(path, nullptr, reference->get()).ok());
  const size_t test_begin = data->train_size();
  const size_t test_size = data->num_samples() - test_begin;
  std::vector<float> expected;
  (*reference)->Predict(data->GetBatch(test_begin, test_size), &expected);

  InferenceServerOptions options;
  options.num_workers = 4;
  options.max_batch = 64;
  options.max_wait_us = 100;
  options.num_fields = data->num_fields();
  options.num_numerical = data->config().num_numerical;
  auto server = InferenceServer::Start(
      options,
      [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        auto replica = MakeModel("dlrm", model_config, frozen_raw);
        if (!replica.ok()) return replica.status();
        CAFE_RETURN_IF_ERROR(io::LoadCheckpoint(path, nullptr, replica->get()));
        return std::move(replica).value();
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // 3 concurrent clients submit interleaved slices with awkward sizes.
  constexpr size_t kClients = 3;
  constexpr size_t kRequestSize = 7;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      std::vector<std::pair<size_t, std::future<std::vector<float>>>> inflight;
      for (size_t start = c * kRequestSize; start < test_size;
           start += kClients * kRequestSize) {
        const size_t size = std::min(kRequestSize, test_size - start);
        auto submitted =
            (*server)->Submit(data->GetBatch(test_begin + start, size));
        if (!submitted.ok()) {
          errors[c] = "client " + std::to_string(c) +
                      ": submit failed: " + submitted.status().ToString();
          return;
        }
        inflight.emplace_back(start, std::move(submitted).value());
      }
      for (auto& [start, future] : inflight) {
        const std::vector<float> got = future.get();
        for (size_t i = 0; i < got.size(); ++i) {
          if (std::memcmp(&got[i], &expected[start + i], sizeof(float)) != 0) {
            errors[c] = "client " + std::to_string(c) +
                        ": logit diverged at sample " +
                        std::to_string(start + i);
            return;
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  for (const std::string& error : errors) EXPECT_EQ(error, "");

  const InferenceServer::Stats stats = (*server)->stats();
  const size_t expected_requests = (test_size + kRequestSize - 1) /
                                   kRequestSize;
  EXPECT_EQ(stats.requests, expected_requests);
  EXPECT_EQ(stats.samples, test_size);
  EXPECT_GE(stats.executed_batches, 1u);
  EXPECT_LE(stats.executed_batches, stats.requests);
  EXPECT_EQ((*server)->latency_count(), expected_requests);
  (*server)->Shutdown();
}

// With a long batching window and one worker, a burst that exactly fills
// max_batch coalesces into a single executed forward pass.
TEST(InferenceServerTest, MicroBatcherCoalescesUpToMaxBatch) {
  auto data = MakeServingDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  auto store = MakeStore("hash", context);
  ASSERT_TRUE(store.ok());
  auto frozen = FrozenStore::Adopt(std::move(*store));
  FrozenStore* frozen_raw = frozen.get();
  ModelConfig model_config = MakeServingModelConfig(*data);

  InferenceServerOptions options;
  options.num_workers = 1;
  options.max_batch = 40;
  options.max_wait_us = 200000;  // long window: only a full batch releases
  options.num_fields = data->num_fields();
  options.num_numerical = data->config().num_numerical;
  auto server = InferenceServer::Start(
      options, [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        auto replica = MakeModel("dlrm", model_config, frozen_raw);
        if (!replica.ok()) return replica.status();
        return std::move(replica).value();
      });
  ASSERT_TRUE(server.ok());

  std::vector<std::future<std::vector<float>>> futures;
  for (int r = 0; r < 10; ++r) {
    auto submitted = (*server)->Submit(data->GetBatch(r * 4, 4));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().size(), 4u);
  }
  const InferenceServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.samples, 40u);
  EXPECT_EQ(stats.executed_batches, 1u)
      << "10 x 4 samples against max_batch 40 must coalesce into one pass";
  (*server)->Shutdown();
}

// A burst that fills max_batch wakes the worker in its batching window at
// once, not when the window expires: with a 2 s window, 10 x 4 samples
// against max_batch 40 complete well inside a second, as one pass. The
// first request goes alone, so the worker is inside its window when the
// batch fills.
TEST(InferenceServerTest, FullBatchReleasesBeforeWindow) {
  auto data = MakeServingDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  auto store = MakeStore("hash", context);
  ASSERT_TRUE(store.ok());
  auto frozen = FrozenStore::Adopt(std::move(*store));
  FrozenStore* frozen_raw = frozen.get();
  ModelConfig model_config = MakeServingModelConfig(*data);

  InferenceServerOptions options;
  options.num_workers = 1;
  options.max_batch = 40;
  options.max_wait_us = 2000000;
  options.num_fields = data->num_fields();
  options.num_numerical = data->config().num_numerical;
  auto server = InferenceServer::Start(
      options, [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        auto replica = MakeModel("dlrm", model_config, frozen_raw);
        if (!replica.ok()) return replica.status();
        return std::move(replica).value();
      });
  ASSERT_TRUE(server.ok());

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<std::vector<float>>> futures;
  for (int r = 0; r < 10; ++r) {
    auto submitted = (*server)->Submit(data->GetBatch(r * 4, 4));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
    if (r == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().size(), 4u);
  }
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_LT(elapsed_s, 1.0) << "the full batch waited out the window";
  EXPECT_EQ((*server)->stats().executed_batches, 1u);
  (*server)->Shutdown();
}

// Shutdown completes everything already queued before joining.
TEST(InferenceServerTest, ShutdownDrainsQueuedRequests) {
  auto data = MakeServingDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  auto store = MakeStore("full", context);
  ASSERT_TRUE(store.ok());
  auto frozen = FrozenStore::Adopt(std::move(*store));
  FrozenStore* frozen_raw = frozen.get();
  ModelConfig model_config = MakeServingModelConfig(*data);

  InferenceServerOptions options;
  options.num_workers = 2;
  options.max_batch = 16;
  options.max_wait_us = 100000;  // requests would otherwise sit in the window
  options.num_fields = data->num_fields();
  options.num_numerical = data->config().num_numerical;
  auto server = InferenceServer::Start(
      options, [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        auto replica = MakeModel("wdl", model_config, frozen_raw);
        if (!replica.ok()) return replica.status();
        return std::move(replica).value();
      });
  ASSERT_TRUE(server.ok());

  std::vector<std::future<std::vector<float>>> futures;
  for (int r = 0; r < 6; ++r) {
    auto submitted = (*server)->Submit(data->GetBatch(r * 5, 5));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  (*server)->Shutdown();  // flushes the window immediately
  for (auto& future : futures) {
    EXPECT_EQ(future.get().size(), 5u);
  }
  EXPECT_EQ((*server)->stats().requests, 6u);
}

// The full train -> checkpoint -> serve pipeline: served logits must equal
// an uninterrupted in-process train + predict run bit-for-bit (training is
// seeded-deterministic; the checkpoint round trip and the frozen serving
// path are both exact).
TEST(ServingPipelineTest, PipelineLogitsMatchUninterruptedTraining) {
  auto data = MakeServingDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  ModelConfig model_config = MakeServingModelConfig(*data);

  ServingPipelineOptions options;
  options.train.batch_size = 128;
  options.server.num_workers = 3;
  options.server.max_batch = 64;
  options.server.max_wait_us = 100;
  options.checkpoint_path = ::testing::TempDir() + "cafe_pipeline_test.bin";
  options.request_size = 9;
  auto result =
      RunServingPipeline("cafe", context, "dlrm", model_config, *data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Uninterrupted reference: same seeds, same training stream, no
  // checkpoint, predictions straight off the live trained model.
  auto store = MakeStore("cafe", context);
  ASSERT_TRUE(store.ok());
  auto model = MakeModel("dlrm", model_config, store->get());
  ASSERT_TRUE(model.ok());
  TrainOnePass(model->get(), *data, options.train);
  const size_t test_begin = data->train_size();
  const size_t test_size = data->num_samples() - test_begin;
  std::vector<float> expected;
  (*model)->Predict(data->GetBatch(test_begin, test_size), &expected);

  ASSERT_EQ(result->logits.size(), expected.size());
  EXPECT_EQ(std::memcmp(result->logits.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0)
      << "served logits diverged from the uninterrupted training run";

  EXPECT_EQ(result->requests, (test_size + 8) / 9);
  EXPECT_EQ(result->latency.count, result->requests);
  EXPECT_GT(result->requests_per_second, 0.0);
  EXPECT_GE(result->latency.p99_us, result->latency.p50_us);
  // HLL cardinality tracking reports one estimate per field.
  EXPECT_EQ(result->train.field_distinct_estimates.size(),
            data->num_fields());
  for (size_t f = 0; f < data->num_fields(); ++f) {
    const double estimate = result->train.field_distinct_estimates[f];
    EXPECT_GT(estimate, 0.0);
    // Estimates cannot wildly exceed the field's cardinality.
    EXPECT_LT(estimate,
              static_cast<double>(data->layout().cardinality(f)) * 1.2 + 16.0);
  }
}

TEST(LatencyRecorderTest, PercentilesOnKnownPopulation) {
  LatencyRecorder recorder;
  for (int i = 1; i <= 100; ++i) recorder.Record(static_cast<double>(i));
  const LatencySummary summary = recorder.Summary();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_NEAR(summary.p50_us, 50.0, 1.0);
  EXPECT_NEAR(summary.p95_us, 95.0, 1.0);
  EXPECT_NEAR(summary.p99_us, 99.0, 1.0);
  EXPECT_DOUBLE_EQ(summary.mean_us, 50.5);
  EXPECT_DOUBLE_EQ(summary.max_us, 100.0);
  recorder.Clear();
  EXPECT_EQ(recorder.Summary().count, 0u);
}

}  // namespace
}  // namespace cafe
