#include "core/cafe_embedding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/theory.h"
#include "io/serialize.h"

namespace cafe {
namespace {

CafeConfig MakeCafeConfig(uint64_t n, uint32_t dim, double cr,
                          uint64_t seed = 42) {
  CafeConfig config;
  config.embedding.total_features = n;
  config.embedding.dim = dim;
  config.embedding.compression_ratio = cr;
  config.embedding.seed = seed;
  return config;
}

std::vector<float> Lookup(EmbeddingStore* store, uint64_t id) {
  std::vector<float> out(store->dim());
  store->Lookup(id, out.data());
  return out;
}

// ------------------------------------------------------------ MemoryPlan --

TEST(CafeMemoryPlanTest, SplitsBudgetByHotPercentage) {
  CafeConfig config = MakeCafeConfig(100000, 16, 100);
  config.hot_percentage = 0.7;
  auto plan = CafeMemoryPlan::Compute(config, sizeof(HotSketch::Slot));
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->hot_capacity, 0u);
  EXPECT_GT(plan->shared_rows_a, 0u);
  EXPECT_EQ(plan->shared_rows_b, 0u);  // multi-level off
  const uint64_t total = plan->sketch_bytes + plan->hot_table_bytes +
                         plan->shared_bytes;
  EXPECT_LE(total, plan->budget_bytes + 16 * 4);
}

TEST(CafeMemoryPlanTest, MultiLevelSplitsSharedRegion) {
  CafeConfig config = MakeCafeConfig(100000, 16, 100);
  config.use_multi_level = true;
  config.medium_table_fraction = 1.0 / 3.0;
  auto plan = CafeMemoryPlan::Compute(config, sizeof(HotSketch::Slot));
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->shared_rows_b, 0u);
  EXPECT_GT(plan->shared_rows_a, plan->shared_rows_b);
}

TEST(CafeMemoryPlanTest, HotCapacityCappedByFeatureCount) {
  CafeConfig config = MakeCafeConfig(100, 8, 1);  // huge budget, few features
  auto plan = CafeMemoryPlan::Compute(config, sizeof(HotSketch::Slot));
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->hot_capacity, 100u);
}

TEST(CafeMemoryPlanTest, ExtremeCompressionStillFeasible) {
  // The paper's headline: CAFE works at 10000x where QR/AdaEmbed cannot.
  CafeConfig config = MakeCafeConfig(1000000, 16, 10000);
  auto plan = CafeMemoryPlan::Compute(config, sizeof(HotSketch::Slot));
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->hot_capacity, 0u);
  EXPECT_GT(plan->shared_rows_a, 0u);
}

TEST(CafeMemoryPlanTest, ValidatesConfig) {
  CafeConfig config = MakeCafeConfig(100, 8, 10);
  config.hot_percentage = 1.5;
  EXPECT_FALSE(
      CafeMemoryPlan::Compute(config, sizeof(HotSketch::Slot)).ok());
  config.hot_percentage = 0.7;
  config.decay_coefficient = 2.0;
  EXPECT_FALSE(
      CafeMemoryPlan::Compute(config, sizeof(HotSketch::Slot)).ok());
}

// ---------------------------------------------------------- CafeEmbedding --

TEST(CafeEmbeddingTest, CreatesWithinBudget) {
  CafeConfig config = MakeCafeConfig(50000, 16, 100);
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  EXPECT_LE((*store)->MemoryBytes(),
            config.embedding.BudgetBytes() + 16 * sizeof(float));
  EXPECT_EQ((*store)->Name(), "cafe");
}

// SaveState and SaveDelta size their output up front from the plan shapes
// and the dirty-set counts, so the writer allocates once, exactly the bytes
// written, and never regrows (a regrowth re-copies the tables). On an empty
// writer std::string::reserve allocates exactly the request.
TEST(CafeEmbeddingTest, SaveStateAndSaveDeltaReserveExactlyWhatTheyWrite) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.use_multi_level = true;
  config.decay_interval = 3;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 0.5f);
  uint64_t id = 1;
  auto train = [&](int ticks) {
    for (int t = 0; t < ticks; ++t) {
      for (int k = 0; k < 200; ++k) {
        id = (id * 7919 + 13) % 10000;
        (*store)->ApplyGradient(id % (k < 100 ? 50 : 10000), grad.data(),
                                0.01f);
      }
      (*store)->Tick();
    }
  };
  train(7);
  io::Writer state;
  ASSERT_TRUE((*store)->SaveState(&state).ok());
  EXPECT_EQ(state.buffer().capacity(), state.size());

  ASSERT_TRUE((*store)->EnableDirtyTracking().ok());
  // Two ticks per round with decay every third: rounds with and without a
  // maintenance section.
  for (int round = 0; round < 4; ++round) {
    train(2);
    io::Writer delta;
    ASSERT_TRUE((*store)->SaveDelta(&delta).ok());
    EXPECT_EQ(delta.buffer().capacity(), delta.size()) << "round " << round;
  }
}

TEST(CafeEmbeddingTest, MultiLevelName) {
  CafeConfig config = MakeCafeConfig(50000, 16, 100);
  config.use_multi_level = true;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Name(), "cafe-ml");
}

TEST(CafeEmbeddingTest, NewFeatureStartsCold) {
  auto store = CafeEmbedding::Create(MakeCafeConfig(10000, 8, 50));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->ClassifyForTest(123), CafeEmbedding::Path::kCold);
}

TEST(CafeEmbeddingTest, NoPromotionBeforeFirstMaintenanceTick) {
  // Auto mode defers promotions until the sketch has one interval of
  // importance mass, so first-batch ids cannot squat on exclusive rows.
  auto store = CafeEmbedding::Create(MakeCafeConfig(10000, 8, 50));
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 1.0f);
  (*store)->ApplyGradient(7, grad.data(), 0.01f);
  EXPECT_EQ((*store)->ClassifyForTest(7), CafeEmbedding::Path::kCold);
  EXPECT_EQ((*store)->migrations(), 0u);
}

TEST(CafeEmbeddingTest, RepeatedGradientsPromoteToHot) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.decay_interval = 1;  // maintenance after every iteration
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 1.0f);
  (*store)->ApplyGradient(7, grad.data(), 0.01f);
  (*store)->Tick();  // first maintenance enables promotions
  (*store)->ApplyGradient(7, grad.data(), 0.01f);
  EXPECT_EQ((*store)->ClassifyForTest(7), CafeEmbedding::Path::kHot);
  EXPECT_EQ((*store)->migrations(), 1u);
}

TEST(CafeEmbeddingTest, MigrationCopiesSharedEmbedding) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.decay_interval = 1;
  config.decay_coefficient = 1.0;  // keep scores exact for the check
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> warm(8, 0.5f);
  (*store)->ApplyGradient(55, warm.data(), 0.0f);  // lr 0: score only
  (*store)->Tick();
  const auto shared_before = Lookup(store->get(), 55);
  std::vector<float> grad(8, 0.5f);
  (*store)->ApplyGradient(55, grad.data(), 0.1f);
  ASSERT_EQ((*store)->ClassifyForTest(55), CafeEmbedding::Path::kHot);
  const auto hot_now = Lookup(store->get(), 55);
  // hot = migrated shared value + one SGD step.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(hot_now[i], shared_before[i] - 0.1f * 0.5f, 1e-6);
  }
}

TEST(CafeEmbeddingTest, HotUpdatesDoNotTouchSharedRows) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.decay_interval = 1;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 1.0f);
  (*store)->ApplyGradient(7, grad.data(), 0.01f);
  (*store)->Tick();
  (*store)->ApplyGradient(7, grad.data(), 0.01f);
  ASSERT_EQ((*store)->ClassifyForTest(7), CafeEmbedding::Path::kHot);
  // A different cold feature's embedding must be unaffected by more hot
  // updates even if it hashes to the same shared row as feature 7.
  const auto other = Lookup(store->get(), 4242);
  for (int i = 0; i < 50; ++i) {
    (*store)->ApplyGradient(7, grad.data(), 0.01f);
  }
  EXPECT_EQ(Lookup(store->get(), 4242), other);
}

TEST(CafeEmbeddingTest, DecayDemotesStaleHotFeatures) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.auto_threshold = false;
  config.hot_threshold = 1.0;
  config.decay_coefficient = 0.01;  // aggressive decay for the test
  config.decay_interval = 10;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 1.0f);  // ||grad|| = sqrt(8) ~ 2.83 > 1
  (*store)->ApplyGradient(9, grad.data(), 0.01f);
  ASSERT_EQ((*store)->ClassifyForTest(9), CafeEmbedding::Path::kHot);
  const uint64_t hot_before = (*store)->hot_count();
  // Tick to the decay boundary without touching feature 9 again.
  for (int i = 0; i < 10; ++i) (*store)->Tick();
  EXPECT_EQ((*store)->ClassifyForTest(9), CafeEmbedding::Path::kCold);
  EXPECT_LT((*store)->hot_count(), hot_before);
  EXPECT_GE((*store)->demotions(), 1u);
}

TEST(CafeEmbeddingTest, FixedThresholdGatesPromotion) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.auto_threshold = false;
  config.hot_threshold = 100.0;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 0.1f);  // norm ~0.28 per update
  for (int i = 0; i < 10; ++i) {
    (*store)->ApplyGradient(3, grad.data(), 0.01f);
  }
  EXPECT_EQ((*store)->ClassifyForTest(3), CafeEmbedding::Path::kCold);
  for (int i = 0; i < 400; ++i) {
    (*store)->ApplyGradient(3, grad.data(), 0.01f);
  }
  EXPECT_EQ((*store)->ClassifyForTest(3), CafeEmbedding::Path::kHot);
}

TEST(CafeEmbeddingTest, SketchEvictionFreesHotRow) {
  // Tiny sketch: 1-row hot table -> bucket collisions force evictions.
  CafeConfig config = MakeCafeConfig(100000, 8, 12000);
  config.auto_threshold = false;
  config.hot_threshold = 0.1;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  ASSERT_GE((*store)->plan().hot_capacity, 1u);
  std::vector<float> grad(8, 1.0f);
  // Hammer many features; with a tiny sketch, evictions must recycle rows
  // without leaking (hot_count stays <= capacity).
  for (uint64_t f = 0; f < 5000; ++f) {
    (*store)->ApplyGradient(f, grad.data(), 0.01f);
    ASSERT_LE((*store)->hot_count(), (*store)->plan().hot_capacity);
  }
}

TEST(CafeEmbeddingTest, LookupStatsTrackPaths) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.decay_interval = 1;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> out(8);
  (*store)->Lookup(1, out.data());
  (*store)->Lookup(2, out.data());
  EXPECT_EQ((*store)->lookup_stats().cold, 2u);
  std::vector<float> grad(8, 1.0f);
  (*store)->ApplyGradient(1, grad.data(), 0.01f);
  (*store)->Tick();
  (*store)->ApplyGradient(1, grad.data(), 0.01f);
  (*store)->Lookup(1, out.data());
  EXPECT_EQ((*store)->lookup_stats().hot, 1u);
  (*store)->ResetLookupStats();
  EXPECT_EQ((*store)->lookup_stats().hot, 0u);
}

TEST(CafeEmbeddingTest, FrequencyImportanceCountsOccurrences) {
  CafeConfig config = MakeCafeConfig(10000, 8, 50);
  config.importance = ImportanceMetric::kFrequency;
  config.auto_threshold = false;
  config.hot_threshold = 5.0;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> tiny(8, 1e-6f);  // norm irrelevant in frequency mode
  for (int i = 0; i < 4; ++i) (*store)->ApplyGradient(11, tiny.data(), 0.01f);
  EXPECT_EQ((*store)->ClassifyForTest(11), CafeEmbedding::Path::kCold);
  (*store)->ApplyGradient(11, tiny.data(), 0.01f);  // 5th occurrence
  EXPECT_EQ((*store)->ClassifyForTest(11), CafeEmbedding::Path::kHot);
}

// ------------------------------------------------------------ MultiLevel --

TEST(CafeMultiLevelTest, MediumFeaturesPoolTwoTables) {
  CafeConfig config = MakeCafeConfig(100000, 8, 200);
  config.use_multi_level = true;
  config.auto_threshold = false;
  config.hot_threshold = 1000.0;  // unreachable: everything stays non-hot
  config.medium_threshold_fraction = 0.001;  // medium at score 1.0
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 1.0f);  // norm ~2.83 > medium threshold
  const auto cold_before = Lookup(store->get(), 77);
  (*store)->ApplyGradient(77, grad.data(), 0.0f);  // lr 0: no value change
  EXPECT_EQ((*store)->ClassifyForTest(77), CafeEmbedding::Path::kMedium);
  // Table B rows start at zero, so the pooled embedding equals the cold
  // embedding right after the class change (smooth transition).
  EXPECT_EQ(Lookup(store->get(), 77), cold_before);
}

TEST(CafeMultiLevelTest, MediumGradientFlowsToBothTables) {
  CafeConfig config = MakeCafeConfig(100000, 8, 200);
  config.use_multi_level = true;
  config.auto_threshold = false;
  config.hot_threshold = 1000.0;
  config.medium_threshold_fraction = 0.001;
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 1.0f);
  (*store)->ApplyGradient(77, grad.data(), 0.0f);  // reach medium
  const auto before = Lookup(store->get(), 77);
  (*store)->ApplyGradient(77, grad.data(), 0.1f);
  const auto after = Lookup(store->get(), 77);
  for (size_t i = 0; i < 8; ++i) {
    // Both pooled rows moved by -0.1: total -0.2.
    EXPECT_NEAR(after[i], before[i] - 0.2f, 1e-5);
  }
}

// ------------------------------------------------------------- Ablations --

TEST(CafePerFieldTest, QuotasRespectFieldPartition) {
  CafeConfig config = MakeCafeConfig(2000, 8, 10);
  config.decay_interval = 1;
  config.per_field_hot = true;
  config.field_layout = FieldLayout({1000, 1000});
  auto store = CafeEmbedding::Create(config);
  ASSERT_TRUE(store.ok());
  std::vector<float> grad(8, 1.0f);
  // Saturate field 0's quota: features from field 0 only, with periodic
  // maintenance so promotions are enabled.
  for (uint64_t f = 0; f < 900; ++f) {
    (*store)->ApplyGradient(f, grad.data(), 0.01f);
    if (f % 20 == 0) (*store)->Tick();
    (*store)->ApplyGradient(f, grad.data(), 0.01f);
  }
  const uint64_t capacity = (*store)->plan().hot_capacity;
  // With a 50/50 cardinality split, field 0 cannot own more than ~half the
  // exclusive rows (+1 rounding).
  EXPECT_LE((*store)->hot_count(), capacity / 2 + 1);
}

// --------------------------------------------------------------- Theory --

TEST(TheoryTest, HoldProbabilityMonotonicInParameters) {
  const double base = theory::HoldProbabilityLowerBound(1000, 4, 1e-3);
  EXPECT_GT(theory::HoldProbabilityLowerBound(2000, 4, 1e-3), base);
  EXPECT_GT(theory::HoldProbabilityLowerBound(1000, 8, 1e-3), base);
  EXPECT_GT(theory::HoldProbabilityLowerBound(1000, 4, 2e-3), base);
}

TEST(TheoryTest, ZipfBoundMonotonicInSkewAndHotness) {
  const double base =
      theory::ZipfHoldProbabilityLowerBound(10000, 4, 1e-4, 1.1);
  EXPECT_GE(theory::ZipfHoldProbabilityLowerBound(10000, 4, 1e-4, 1.7),
            base);
  EXPECT_GE(theory::ZipfHoldProbabilityLowerBound(10000, 4, 1e-3, 1.1),
            base);
}

TEST(TheoryTest, Figure7CornerValues) {
  // Paper Figure 7 (w=10000, c=4): hot features at large gamma and large z
  // are held with probability near 1.
  EXPECT_GT(theory::ZipfHoldProbabilityLowerBound(10000, 4, 1e-3, 2.0),
            0.95);
  // Colder features at low skew have visibly lower bounds.
  EXPECT_LT(theory::ZipfHoldProbabilityLowerBound(10000, 4, 1e-5, 1.1),
            0.95);
}

TEST(TheoryTest, OptimalSlotsMatchesCorollary) {
  EXPECT_NEAR(theory::OptimalSlotsPerBucket(1.05), 21.0, 1e-9);
  EXPECT_NEAR(theory::OptimalSlotsPerBucket(1.1), 11.0, 1e-9);
  EXPECT_NEAR(theory::OptimalSlotsPerBucket(2.0), 2.0, 1e-9);
}

}  // namespace
}  // namespace cafe
