#ifndef CAFE_COMMON_SIMD_H_
#define CAFE_COMMON_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cafe {
namespace simd {

/// Runtime-dispatched vector kernels for the embedding hot loops (the
/// LookupBatch row gather, the ApplyGradientBatch clip+SGD scatter, the
/// BatchDeduper clip+accumulate, the dense SGD axpy) and for the dense tier
/// (Linear forward/backward, the DLRM dot interaction forward/backward).
///
/// Dispatch has three tiers, picked once at startup from cpuid and
/// overridable at runtime (quiescent stores only) so benches can A/B the
/// vector path against the scalar reference on the same host:
///
///   kScalar  — the original C++ loops. Always available; the only tier
///              compiled under -DCAFE_NO_SIMD=ON or on non-x86 hosts.
///   kAvx2    — 8-lane AVX2 kernels (per-function target attributes; no
///              global -mavx2, so the rest of the binary stays baseline).
///   kAvx512  — 16-lane AVX-512F kernels.
///
/// Exactness contract: in the default EXACT mode every kernel performs the
/// SAME per-element IEEE op sequence as the scalar loop (clamp via vector
/// min/max, then one multiply, then one subtract/add — tails via masked
/// vector ops so the compiler cannot contract them into FMA), so results
/// are bit-identical lane by lane and the scalar-vs-batched parity battery
/// holds across tiers. Reductions (dot products, gradient sums) follow one
/// rule: each vector lane carries its own independent sum, accumulated in
/// exactly the scalar loop's order; one sum is never split across lanes.
/// The opt-in FUSED mode replaces multiply+subtract with a single-rounding
/// FMA in the axpy kernels — up to 1/2 ulp per element tighter than
/// scalar, NOT bit-identical — for deployments that prefer
/// throughput+accuracy over reproducibility; the dense-tier kernels stay
/// exact in both modes.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best tier the host (and build flags) support. Constant per process.
Tier DetectedTier();

/// Tier the kernels currently dispatch to (DetectedTier() unless forced).
Tier ActiveTier();

/// Forces dispatch to min(tier, DetectedTier()). Benches/tests only: not
/// synchronized against threads concurrently inside a kernel, so switch at
/// a quiescent point. Returns the tier actually activated.
Tier SetActiveTier(Tier tier);

/// Restores ActiveTier() to DetectedTier().
void ResetActiveTier();

/// Switches the axpy kernels between exact mode (default, multiply then
/// subtract — bit-identical to scalar) and fused-FMA mode (one rounding,
/// documented epsilon). No effect on the scalar tier.
void SetFusedFma(bool enable);
bool FusedFma();

const char* TierName(Tier tier);
inline const char* ActiveTierName() { return TierName(ActiveTier()); }

namespace detail {

struct Kernels {
  void (*copy_row)(float*, const float*, uint32_t);
  void (*axpy_neg)(float*, const float*, uint32_t, float);
  void (*axpy_clip_neg)(float*, const float*, uint32_t, float, float);
  void (*accum_clip)(float*, const float*, uint32_t, float);
  void (*add_scaled)(float*, const float*, uint32_t, float);
  void (*add_rows)(float*, const float*, const float*, uint32_t);
  void (*mul_rows)(float*, const float*, const float*, uint32_t);
  void (*linear_forward)(const float*, const float*, const float*, size_t,
                         size_t, size_t, float*);
  void (*linear_backward)(const float*, const float*, const float*, size_t,
                          size_t, size_t, float*, float*, float*);
  void (*dot_interaction)(const float*, size_t, size_t, float*);
  void (*dot_interaction_backward)(const float*, const float*, size_t,
                                   size_t, float*);
};

/// Constant-initialized to the scalar table (function addresses are
/// constexpr), upgraded to the detected tier by a dynamic initializer in
/// simd.cc — so kernels are callable even during static construction.
extern std::atomic<const Kernels*> g_kernels;

inline const Kernels& Active() {
  return *g_kernels.load(std::memory_order_relaxed);
}

}  // namespace detail

/// dst[0..d) = src[0..d). The LookupBatch gather body.
inline void CopyRow(float* dst, const float* src, uint32_t d) {
  detail::Active().copy_row(dst, src, d);
}

/// row[k] -= lr * g[k] — the scatter body for pre-accumulated (already
/// clipped) gradients and the dense SGD step.
inline void AxpyNeg(float* row, const float* g, uint32_t d, float lr) {
  detail::Active().axpy_neg(row, g, d, lr);
}

/// row[k] -= lr * clamp(g[k], -bound, +bound) — the fused clip+SGD scatter
/// body (bound = +inf when clipping is off, matching embed_internal::
/// ClipBound).
inline void AxpyClipNeg(float* row, const float* g, uint32_t d, float lr,
                        float bound) {
  detail::Active().axpy_clip_neg(row, g, d, lr, bound);
}

/// acc[k] += clamp(g[k], -bound, +bound) — the BatchDeduper clip-on-read
/// accumulate body.
inline void AccumClip(float* acc, const float* g, uint32_t d, float bound) {
  detail::Active().accum_clip(acc, g, d, bound);
}

/// dst[k] += a * src[k] — the dense-layer backward outer-product rows.
inline void AddScaled(float* dst, const float* src, uint32_t d, float a) {
  detail::Active().add_scaled(dst, src, d, a);
}

/// dst[k] = a[k] + b[k] — the QR additive-combine lookup body.
inline void AddRows(float* dst, const float* a, const float* b, uint32_t d) {
  detail::Active().add_rows(dst, a, b, d);
}

/// dst[k] = a[k] * b[k] — the QR multiplicative-combine lookup body.
inline void MulRows(float* dst, const float* a, const float* b, uint32_t d) {
  detail::Active().mul_rows(dst, a, b, d);
}

/// Linear forward over a row-major (batch, in) block x and weights w
/// (out, in): y[b][o] = bias[o] + w[o][0]*x[b][0] + w[o][1]*x[b][1] + ...,
/// summed left to right. y is (batch, out).
inline void LinearForward(const float* x, const float* w, const float* bias,
                          size_t batch, size_t in, size_t out, float* y) {
  detail::Active().linear_forward(x, w, bias, batch, in, out, y);
}

/// Linear backward for the same shapes, given gy (batch, out):
///   gb[o]    += gy[b][o]              over b ascending;
///   gw[o][i] += gy[b][o] * x[b][i]    over b ascending;
///   gx[b][i]  = sum of gy[b][o] * w[o][i] over o ascending, from zero
///               (gx is overwritten).
/// Every term whose gy[b][o] == 0 is skipped, as the scalar loop does.
inline void LinearBackward(const float* x, const float* w, const float* gy,
                           size_t batch, size_t in, size_t out, float* gx,
                           float* gw, float* gb) {
  detail::Active().linear_backward(x, w, gy, batch, in, out, gx, gw, gb);
}

/// One sample's DLRM dot interaction over its k vectors of d floats
/// (vector i at vecs + i*d): writes the k(k-1)/2 dots vec(i).vec(j), i < j,
/// in (i, j) row-major order to out, each summed over t ascending from 0.
inline void DotInteraction(const float* vecs, size_t k, size_t d,
                           float* out) {
  detail::Active().dot_interaction(vecs, k, d, out);
}

/// Backward of DotInteraction: for every vector m,
/// grad_vecs[m] += g(m, p) * vec(p) over partners p != m in ascending order
/// (the order of the scalar pair loop), where g(m, p) is grad_pairs at the
/// position of pair (min(m, p), max(m, p)); zero pair gradients are skipped.
inline void DotInteractionBackward(const float* vecs, const float* grad_pairs,
                                   size_t k, size_t d, float* grad_vecs) {
  detail::Active().dot_interaction_backward(vecs, grad_pairs, k, d,
                                            grad_vecs);
}

}  // namespace simd
}  // namespace cafe

#endif  // CAFE_COMMON_SIMD_H_
