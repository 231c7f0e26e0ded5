#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/prefetch.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/zipf.h"

namespace cafe {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, WorksWithMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    CAFE_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    min = std::min(min, u);
    max = std::max(max, u);
  }
  EXPECT_LT(min, 0.01);  // covers the range
  EXPECT_GT(max, 0.99);
}

TEST(RngTest, UniformIsApproximatelyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.Uniform(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);  // ~5 sigma
  }
}

TEST(RngTest, NormalHasUnitMoments) {
  Rng rng(13);
  constexpr int kDraws = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, SplitMixAvalanche) {
  // Flipping one input bit flips ~half the output bits.
  int total_flips = 0;
  constexpr int kTrials = 64;
  for (int bit = 0; bit < kTrials; ++bit) {
    const uint64_t a = SplitMix64(0x12345678ULL);
    const uint64_t b = SplitMix64(0x12345678ULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / kTrials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, SeededHashDeterministic) {
  SeededHash h(5);
  EXPECT_EQ(h(42), h(42));
}

TEST(HashTest, DifferentSeedsGiveDifferentFunctions) {
  SeededHash h1(1), h2(2);
  int differing = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    if (h1(k) != h2(k)) ++differing;
  }
  EXPECT_GT(differing, 95);
}

TEST(HashTest, BoundedStaysInRange) {
  SeededHash h(3);
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_LT(h.Bounded(k, 100), 100u);
  }
}

TEST(HashTest, BoundedIsApproximatelyUniform) {
  SeededHash h(7);
  constexpr uint64_t kBuckets = 16;
  constexpr uint64_t kKeys = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t k = 0; k < kKeys; ++k) ++counts[h.Bounded(k, kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, static_cast<int>(kKeys / kBuckets), 700);
  }
}

// ------------------------------------------------------------------ Zipf --

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution zipf(1000, 1.05);
  double sum = 0.0;
  for (uint64_t i = 1; i <= 1000; ++i) sum += zipf.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfIsMonotonicallyDecreasing) {
  ZipfDistribution zipf(100, 1.2);
  for (uint64_t i = 1; i < 100; ++i) {
    EXPECT_GT(zipf.Pmf(i), zipf.Pmf(i + 1));
  }
}

TEST(ZipfTest, SamplesInRange) {
  ZipfDistribution zipf(50, 0.8);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t r = zipf.Sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 50u);
  }
}

TEST(ZipfTest, SingleItemAlwaysRankOne) {
  ZipfDistribution zipf(1, 1.5);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 1u);
}

// Property sweep: empirical frequencies track the analytic PMF across
// skews, including z == 1 (log-form antiderivative) and z > 1.
class ZipfDistributionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfDistributionSweep, EmpiricalMatchesPmf) {
  const double z = GetParam();
  constexpr uint64_t kN = 200;
  constexpr int kDraws = 300000;
  ZipfDistribution zipf(kN, z);
  Rng rng(42);
  std::vector<int> counts(kN + 1, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (uint64_t rank : {uint64_t{1}, uint64_t{2}, uint64_t{5}, uint64_t{20}}) {
    const double expected = zipf.Pmf(rank);
    const double observed = static_cast<double>(counts[rank]) / kDraws;
    EXPECT_NEAR(observed, expected, 5 * std::sqrt(expected / kDraws) + 1e-4)
        << "rank " << rank << " z " << z;
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfDistributionSweep,
                         ::testing::Values(0.6, 0.9, 1.0, 1.05, 1.1, 1.4,
                                           2.0));

TEST(ZipfTest, FitRecoversExponent) {
  // Noise-free scores: s_i = i^-1.1 exactly.
  std::vector<double> scores;
  for (int i = 1; i <= 2000; ++i) scores.push_back(std::pow(i, -1.1));
  EXPECT_NEAR(FitZipfExponent(scores), 1.1, 1e-6);
}

TEST(ZipfTest, FitIgnoresNonPositiveScores) {
  std::vector<double> scores;
  for (int i = 1; i <= 500; ++i) scores.push_back(std::pow(i, -0.9));
  scores.push_back(0.0);
  scores.push_back(-1.0);
  EXPECT_NEAR(FitZipfExponent(scores), 0.9, 1e-3);
}

TEST(ZipfTest, FitDegenerateInputsReturnZero) {
  EXPECT_EQ(FitZipfExponent({}), 0.0);
  EXPECT_EQ(FitZipfExponent({1.0}), 0.0);
  EXPECT_EQ(FitZipfExponent({0.0, -2.0}), 0.0);
}


// ---------------------------------------------------------------- Prefetch --

TEST(PrefetchTest, DistanceDefaultsAndIsTunable) {
  EXPECT_EQ(PrefetchDistance(), kDefaultPrefetchDistance);
  SetPrefetchDistance(3);
  EXPECT_EQ(PrefetchDistance(), 3u);
  SetPrefetchDistance(0);  // the sweep's "off" point
  EXPECT_EQ(PrefetchDistance(), 0u);
  SetPrefetchDistance(kDefaultPrefetchDistance);
}

// -------------------------------------------------------------------- SIMD --

// Guards SetActiveTier/ResetActiveTier around a test body.
class SimdTierTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::ResetActiveTier();
    simd::SetFusedFma(false);
  }
};

TEST_F(SimdTierTest, ActiveTierCapsAtDetected) {
  const simd::Tier detected = simd::DetectedTier();
  EXPECT_EQ(simd::ActiveTier(), detected);
  EXPECT_EQ(simd::SetActiveTier(simd::Tier::kScalar), simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  EXPECT_EQ(simd::SetActiveTier(simd::Tier::kAvx512), detected);
}

TEST_F(SimdTierTest, TierNamesAreStable) {
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx512), "avx512");
}

// The exactness contract: every vector tier reproduces the scalar loop bit
// for bit, for every kernel, including masked tails and non-power-of-two
// coefficients (which expose any FMA contraction).
TEST_F(SimdTierTest, ExactKernelsAreBitIdenticalToScalarReference) {
  Rng rng(7);
  const float lr = 0.037f;       // not a power of two
  const float bound = 0.75f;
  for (int tier_i = 0; tier_i <= static_cast<int>(simd::DetectedTier());
       ++tier_i) {
    const simd::Tier tier = static_cast<simd::Tier>(tier_i);
    ASSERT_EQ(simd::SetActiveTier(tier), tier);
    for (uint32_t d : {1u, 5u, 8u, 13u, 16u, 17u, 32u, 33u, 64u, 100u}) {
      std::vector<float> row(d), g(d), a(d), b(d);
      for (auto& x : row) x = rng.UniformFloat(-2.0f, 2.0f);
      for (auto& x : g) x = rng.UniformFloat(-2.0f, 2.0f);
      for (auto& x : a) x = rng.UniformFloat(-2.0f, 2.0f);
      for (auto& x : b) x = rng.UniformFloat(-2.0f, 2.0f);

      // Scalar references, computed longhand.
      std::vector<float> want_axpy(row), want_clip(row), want_acc(row),
          want_scaled(row), want_add(d), want_mul(d);
      for (uint32_t k = 0; k < d; ++k) {
        want_axpy[k] -= lr * g[k];
        const float cg = std::clamp(g[k], -bound, bound);
        want_clip[k] -= lr * cg;
        want_acc[k] += cg;
        want_scaled[k] += lr * g[k];
        want_add[k] = a[k] + b[k];
        want_mul[k] = a[k] * b[k];
      }

      std::vector<float> out(row);
      simd::AxpyNeg(out.data(), g.data(), d, lr);
      EXPECT_EQ(0, std::memcmp(out.data(), want_axpy.data(), d * 4))
          << "axpy_neg tier=" << simd::TierName(tier) << " d=" << d;

      out = row;
      simd::AxpyClipNeg(out.data(), g.data(), d, lr, bound);
      EXPECT_EQ(0, std::memcmp(out.data(), want_clip.data(), d * 4))
          << "axpy_clip_neg tier=" << simd::TierName(tier) << " d=" << d;

      out = row;
      simd::AccumClip(out.data(), g.data(), d, bound);
      EXPECT_EQ(0, std::memcmp(out.data(), want_acc.data(), d * 4))
          << "accum_clip tier=" << simd::TierName(tier) << " d=" << d;

      out = row;
      simd::AddScaled(out.data(), g.data(), d, lr);
      EXPECT_EQ(0, std::memcmp(out.data(), want_scaled.data(), d * 4))
          << "add_scaled tier=" << simd::TierName(tier) << " d=" << d;

      out.assign(d, 0.0f);
      simd::AddRows(out.data(), a.data(), b.data(), d);
      EXPECT_EQ(0, std::memcmp(out.data(), want_add.data(), d * 4))
          << "add_rows tier=" << simd::TierName(tier) << " d=" << d;

      out.assign(d, 0.0f);
      simd::MulRows(out.data(), a.data(), b.data(), d);
      EXPECT_EQ(0, std::memcmp(out.data(), want_mul.data(), d * 4))
          << "mul_rows tier=" << simd::TierName(tier) << " d=" << d;

      out.assign(d, 0.0f);
      simd::CopyRow(out.data(), g.data(), d);
      EXPECT_EQ(0, std::memcmp(out.data(), g.data(), d * 4))
          << "copy_row tier=" << simd::TierName(tier) << " d=" << d;
    }
  }
}

// Values a dense layer sees: ReLU zeros (+0), -0.0f, and otherwise uniform.
std::vector<float> DenseValues(size_t n, Rng& rng, float scale) {
  std::vector<float> v(n);
  for (float& x : v) {
    const double u = rng.UniformDouble();
    x = u < 0.3 ? 0.0f : u < 0.4 ? -0.0f : scale * rng.UniformFloat(-2.0f, 2.0f);
  }
  return v;
}

// The dense-tier kernels against longhand loops, every tier, odd shapes:
// batches around the 16-lane blocks, widths that are not multiples of 16,
// a single output. Activations carry ReLU zeros, gradients carry -0.0f and
// are scaled by a non-power-of-two rate (exposing any FMA contraction), and
// the accumulators start non-zero with -0.0f entries, so a masked skip that
// added a zero instead of skipping would show.
TEST_F(SimdTierTest, DenseKernelsAreBitIdenticalToScalarReference) {
  Rng rng(13);
  const float lr = 0.037f;
  struct Shape {
    size_t in, out;
  };
  for (size_t batch : {1u, 15u, 17u, 512u}) {
    for (const Shape s : {Shape{1, 1}, Shape{13, 1}, Shape{37, 19},
                          Shape{94, 33}, Shape{367, 64}}) {
      const std::vector<float> x = DenseValues(batch * s.in, rng, 1.0f);
      const std::vector<float> w = DenseValues(s.out * s.in, rng, 1.0f);
      const std::vector<float> bias = DenseValues(s.out, rng, 1.0f);
      const std::vector<float> gy = DenseValues(batch * s.out, rng, lr);
      const std::vector<float> gw0 = DenseValues(s.out * s.in, rng, lr);
      const std::vector<float> gb0 = DenseValues(s.out, rng, lr);

      std::vector<float> want_y(batch * s.out), want_gx(batch * s.in, 0.0f),
          want_gw(gw0), want_gb(gb0);
      for (size_t b = 0; b < batch; ++b) {
        for (size_t o = 0; o < s.out; ++o) {
          float acc = bias[o];
          for (size_t i = 0; i < s.in; ++i) acc += w[o * s.in + i] * x[b * s.in + i];
          want_y[b * s.out + o] = acc;
          const float g = gy[b * s.out + o];
          if (g == 0.0f) continue;
          want_gb[o] += g;
          for (size_t i = 0; i < s.in; ++i) {
            want_gw[o * s.in + i] += g * x[b * s.in + i];
            want_gx[b * s.in + i] += g * w[o * s.in + i];
          }
        }
      }

      for (int tier_i = 0; tier_i <= static_cast<int>(simd::DetectedTier());
           ++tier_i) {
        const simd::Tier tier = static_cast<simd::Tier>(tier_i);
        ASSERT_EQ(simd::SetActiveTier(tier), tier);
        const std::string at = std::string(" tier=") + simd::TierName(tier) +
                               " batch=" + std::to_string(batch) +
                               " in=" + std::to_string(s.in) +
                               " out=" + std::to_string(s.out);
        std::vector<float> y(batch * s.out);
        simd::LinearForward(x.data(), w.data(), bias.data(), batch, s.in, s.out,
                            y.data());
        EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(), y.size() * 4))
            << "linear_forward" << at;

        std::vector<float> gx(batch * s.in, 1.0f), gw(gw0), gb(gb0);
        simd::LinearBackward(x.data(), w.data(), gy.data(), batch, s.in, s.out,
                             gx.data(), gw.data(), gb.data());
        EXPECT_EQ(0, std::memcmp(gx.data(), want_gx.data(), gx.size() * 4))
            << "linear_backward gx" << at;
        EXPECT_EQ(0, std::memcmp(gw.data(), want_gw.data(), gw.size() * 4))
            << "linear_backward gw" << at;
        EXPECT_EQ(0, std::memcmp(gb.data(), want_gb.data(), gb.size() * 4))
            << "linear_backward gb" << at;
      }
    }
  }

  for (size_t k : {1u, 2u, 5u, 13u, 27u}) {
    for (size_t d : {1u, 7u, 16u, 19u}) {
      const size_t pairs = k * (k - 1) / 2;
      const std::vector<float> vecs = DenseValues(k * d, rng, 1.0f);
      const std::vector<float> g = DenseValues(pairs, rng, lr);
      const std::vector<float> gv0 = DenseValues(k * d, rng, lr);

      // One slot past the pairs must stay untouched.
      std::vector<float> want_out(pairs + 1, 7.0f), want_gv(gv0);
      size_t pos = 0;
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = i + 1; j < k; ++j, ++pos) {
          float dot = 0.0f;
          for (size_t t = 0; t < d; ++t) dot += vecs[i * d + t] * vecs[j * d + t];
          want_out[pos] = dot;
          if (g[pos] == 0.0f) continue;
          for (size_t t = 0; t < d; ++t) {
            want_gv[i * d + t] += g[pos] * vecs[j * d + t];
            want_gv[j * d + t] += g[pos] * vecs[i * d + t];
          }
        }
      }

      for (int tier_i = 0; tier_i <= static_cast<int>(simd::DetectedTier());
           ++tier_i) {
        const simd::Tier tier = static_cast<simd::Tier>(tier_i);
        ASSERT_EQ(simd::SetActiveTier(tier), tier);
        const std::string at = std::string(" tier=") + simd::TierName(tier) +
                               " k=" + std::to_string(k) +
                               " d=" + std::to_string(d);
        std::vector<float> out(pairs + 1, 7.0f);
        simd::DotInteraction(vecs.data(), k, d, out.data());
        EXPECT_EQ(0, std::memcmp(out.data(), want_out.data(), out.size() * 4))
            << "dot_interaction" << at;

        std::vector<float> gv(gv0);
        simd::DotInteractionBackward(vecs.data(), g.data(), k, d, gv.data());
        EXPECT_EQ(0, std::memcmp(gv.data(), want_gv.data(), gv.size() * 4))
            << "dot_interaction_backward" << at;
      }
    }
  }
}

// Fused mode single-rounds the multiply-accumulate: at most 1/2 ulp from
// the exact result per element, and a no-op on the scalar tier.
TEST_F(SimdTierTest, FusedFmaStaysWithinEpsilon) {
  simd::SetFusedFma(true);
  Rng rng(11);
  constexpr uint32_t d = 33;
  const float lr = 0.037f;
  std::vector<float> row(d), g(d);
  for (auto& x : row) x = rng.UniformFloat(-2.0f, 2.0f);
  for (auto& x : g) x = rng.UniformFloat(-2.0f, 2.0f);
  std::vector<float> out(row);
  simd::AxpyNeg(out.data(), g.data(), d, lr);
  for (uint32_t k = 0; k < d; ++k) {
    EXPECT_NEAR(out[k], row[k] - lr * g[k], 1e-6f) << k;
  }
}

}  // namespace
}  // namespace cafe
