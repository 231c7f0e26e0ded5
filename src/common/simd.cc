#include "common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(CAFE_NO_SIMD)
#define CAFE_SIMD_X86 1
#include <immintrin.h>
#endif

namespace cafe {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier: the reference loops, verbatim. Compiled at the baseline arch
// (no FMA instruction exists there), so no contraction can change rounding.
// ---------------------------------------------------------------------------

inline float ClampS(float g, float bound) {
  return std::clamp(g, -bound, bound);
}

void CopyRowScalar(float* dst, const float* src, uint32_t d) {
  std::memcpy(dst, src, d * sizeof(float));
}

void AxpyNegScalar(float* row, const float* g, uint32_t d, float lr) {
  for (uint32_t k = 0; k < d; ++k) row[k] -= lr * g[k];
}

void AxpyClipNegScalar(float* row, const float* g, uint32_t d, float lr,
                       float bound) {
  for (uint32_t k = 0; k < d; ++k) row[k] -= lr * ClampS(g[k], bound);
}

void AccumClipScalar(float* acc, const float* g, uint32_t d, float bound) {
  for (uint32_t k = 0; k < d; ++k) acc[k] += ClampS(g[k], bound);
}

void AddScaledScalar(float* dst, const float* src, uint32_t d, float a) {
  for (uint32_t k = 0; k < d; ++k) dst[k] += a * src[k];
}

void AddRowsScalar(float* dst, const float* a, const float* b, uint32_t d) {
  for (uint32_t k = 0; k < d; ++k) dst[k] = a[k] + b[k];
}

void MulRowsScalar(float* dst, const float* a, const float* b, uint32_t d) {
  for (uint32_t k = 0; k < d; ++k) dst[k] = a[k] * b[k];
}

void LinearForwardScalar(const float* x, const float* w, const float* bias,
                         size_t batch, size_t in, size_t out, float* y) {
  for (size_t b = 0; b < batch; ++b) {
    const float* xb = x + b * in;
    float* yb = y + b * out;
    for (size_t o = 0; o < out; ++o) {
      const float* wo = w + o * in;
      float acc = bias[o];
      for (size_t i = 0; i < in; ++i) acc += wo[i] * xb[i];
      yb[o] = acc;
    }
  }
}

// The row-wise Linear backward: two axpy passes (`add_scaled`) per
// (sample, output) pair with a non-zero gradient. The scalar tier's
// reference, and the AVX2 tier's backward (there a blend-based masked add
// costs more than the branch it would replace).
void LinearBackwardRows(const float* x, const float* w, const float* gy,
                        size_t batch, size_t in, size_t out, float* gx,
                        float* gw, float* gb,
                        void (*add_scaled)(float*, const float*, uint32_t,
                                           float)) {
  std::fill(gx, gx + batch * in, 0.0f);
  const uint32_t d = static_cast<uint32_t>(in);
  for (size_t b = 0; b < batch; ++b) {
    const float* gyb = gy + b * out;
    for (size_t o = 0; o < out; ++o) {
      const float g = gyb[o];
      if (g == 0.0f) continue;
      gb[o] += g;
      add_scaled(gw + o * in, x + b * in, d, g);
      add_scaled(gx + b * in, w + o * in, d, g);
    }
  }
}

void LinearBackwardScalar(const float* x, const float* w, const float* gy,
                          size_t batch, size_t in, size_t out, float* gx,
                          float* gw, float* gb) {
  LinearBackwardRows(x, w, gy, batch, in, out, gx, gw, gb, &AddScaledScalar);
}

void DotInteractionScalar(const float* vecs, size_t k, size_t d, float* out) {
  for (size_t i = 0; i < k; ++i) {
    const float* vi = vecs + i * d;
    for (size_t j = i + 1; j < k; ++j) {
      const float* vj = vecs + j * d;
      float dot = 0.0f;
      for (size_t t = 0; t < d; ++t) dot += vi[t] * vj[t];
      *out++ = dot;
    }
  }
}

void DotInteractionBackwardScalar(const float* vecs, const float* grad_pairs,
                                  size_t k, size_t d, float* grad_vecs) {
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      const float g = *grad_pairs++;
      if (g == 0.0f) continue;
      const float* vi = vecs + i * d;
      const float* vj = vecs + j * d;
      float* gi = grad_vecs + i * d;
      float* gj = grad_vecs + j * d;
      for (size_t t = 0; t < d; ++t) {
        gi[t] += g * vj[t];
        gj[t] += g * vi[t];
      }
    }
  }
}

constexpr detail::Kernels kScalarKernels = {
    &CopyRowScalar,        &AxpyNegScalar,        &AxpyClipNegScalar,
    &AccumClipScalar,      &AddScaledScalar,      &AddRowsScalar,
    &MulRowsScalar,        &LinearForwardScalar,  &LinearBackwardScalar,
    &DotInteractionScalar, &DotInteractionBackwardScalar};

#if defined(CAFE_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 tier: 8-lane kernels. Tails use masked loads/stores — explicit
// intrinsics the compiler will not contract — so EXACT kernels round every
// element exactly like the scalar loop (clamp = min(max(..)), one vmulps,
// one vsubps/vaddps).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i TailMask8(uint32_t r) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)), idx);
}

__attribute__((target("avx2"))) void CopyRowAvx2(float* dst, const float* src,
                                                 uint32_t d) {
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    _mm256_storeu_ps(dst + k, _mm256_loadu_ps(src + k));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    _mm256_maskstore_ps(dst + k, m, _mm256_maskload_ps(src + k, m));
  }
}

__attribute__((target("avx2"))) void AxpyNegAvx2(float* row, const float* g,
                                                 uint32_t d, float lr) {
  const __m256 vlr = _mm256_set1_ps(lr);
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 vg = _mm256_loadu_ps(g + k);
    const __m256 vr = _mm256_loadu_ps(row + k);
    _mm256_storeu_ps(row + k, _mm256_sub_ps(vr, _mm256_mul_ps(vlr, vg)));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    const __m256 vg = _mm256_maskload_ps(g + k, m);
    const __m256 vr = _mm256_maskload_ps(row + k, m);
    _mm256_maskstore_ps(row + k, m,
                        _mm256_sub_ps(vr, _mm256_mul_ps(vlr, vg)));
  }
}

__attribute__((target("avx2,fma"))) void AxpyNegFmaAvx2(float* row,
                                                        const float* g,
                                                        uint32_t d, float lr) {
  const __m256 vlr = _mm256_set1_ps(lr);
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 vg = _mm256_loadu_ps(g + k);
    const __m256 vr = _mm256_loadu_ps(row + k);
    _mm256_storeu_ps(row + k, _mm256_fnmadd_ps(vlr, vg, vr));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    const __m256 vg = _mm256_maskload_ps(g + k, m);
    const __m256 vr = _mm256_maskload_ps(row + k, m);
    _mm256_maskstore_ps(row + k, m, _mm256_fnmadd_ps(vlr, vg, vr));
  }
}

__attribute__((target("avx2"))) inline __m256 Clamp8(__m256 v, __m256 lo,
                                                     __m256 hi) {
  return _mm256_min_ps(_mm256_max_ps(v, lo), hi);
}

__attribute__((target("avx2"))) void AxpyClipNegAvx2(float* row,
                                                     const float* g,
                                                     uint32_t d, float lr,
                                                     float bound) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vhi = _mm256_set1_ps(bound);
  const __m256 vlo = _mm256_set1_ps(-bound);
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 vg = Clamp8(_mm256_loadu_ps(g + k), vlo, vhi);
    const __m256 vr = _mm256_loadu_ps(row + k);
    _mm256_storeu_ps(row + k, _mm256_sub_ps(vr, _mm256_mul_ps(vlr, vg)));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    const __m256 vg = Clamp8(_mm256_maskload_ps(g + k, m), vlo, vhi);
    const __m256 vr = _mm256_maskload_ps(row + k, m);
    _mm256_maskstore_ps(row + k, m,
                        _mm256_sub_ps(vr, _mm256_mul_ps(vlr, vg)));
  }
}

__attribute__((target("avx2,fma"))) void AxpyClipNegFmaAvx2(float* row,
                                                            const float* g,
                                                            uint32_t d,
                                                            float lr,
                                                            float bound) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vhi = _mm256_set1_ps(bound);
  const __m256 vlo = _mm256_set1_ps(-bound);
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 vg = Clamp8(_mm256_loadu_ps(g + k), vlo, vhi);
    const __m256 vr = _mm256_loadu_ps(row + k);
    _mm256_storeu_ps(row + k, _mm256_fnmadd_ps(vlr, vg, vr));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    const __m256 vg = Clamp8(_mm256_maskload_ps(g + k, m), vlo, vhi);
    const __m256 vr = _mm256_maskload_ps(row + k, m);
    _mm256_maskstore_ps(row + k, m, _mm256_fnmadd_ps(vlr, vg, vr));
  }
}

__attribute__((target("avx2"))) void AccumClipAvx2(float* acc, const float* g,
                                                   uint32_t d, float bound) {
  const __m256 vhi = _mm256_set1_ps(bound);
  const __m256 vlo = _mm256_set1_ps(-bound);
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 vg = Clamp8(_mm256_loadu_ps(g + k), vlo, vhi);
    _mm256_storeu_ps(acc + k, _mm256_add_ps(_mm256_loadu_ps(acc + k), vg));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    const __m256 vg = Clamp8(_mm256_maskload_ps(g + k, m), vlo, vhi);
    _mm256_maskstore_ps(acc + k, m,
                        _mm256_add_ps(_mm256_maskload_ps(acc + k, m), vg));
  }
}

__attribute__((target("avx2"))) void AddScaledAvx2(float* dst,
                                                   const float* src,
                                                   uint32_t d, float a) {
  const __m256 va = _mm256_set1_ps(a);
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 vs = _mm256_mul_ps(va, _mm256_loadu_ps(src + k));
    _mm256_storeu_ps(dst + k, _mm256_add_ps(_mm256_loadu_ps(dst + k), vs));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    const __m256 vs = _mm256_mul_ps(va, _mm256_maskload_ps(src + k, m));
    _mm256_maskstore_ps(dst + k, m,
                        _mm256_add_ps(_mm256_maskload_ps(dst + k, m), vs));
  }
}

__attribute__((target("avx2,fma"))) void AddScaledFmaAvx2(float* dst,
                                                          const float* src,
                                                          uint32_t d,
                                                          float a) {
  const __m256 va = _mm256_set1_ps(a);
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 vs = _mm256_loadu_ps(src + k);
    _mm256_storeu_ps(dst + k,
                     _mm256_fmadd_ps(va, vs, _mm256_loadu_ps(dst + k)));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    const __m256 vs = _mm256_maskload_ps(src + k, m);
    _mm256_maskstore_ps(dst + k, m,
                        _mm256_fmadd_ps(va, vs, _mm256_maskload_ps(dst + k, m)));
  }
}


__attribute__((target("avx2"))) void AddRowsAvx2(float* dst, const float* a,
                                                 const float* b, uint32_t d) {
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    _mm256_storeu_ps(
        dst + k, _mm256_add_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k)));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    _mm256_maskstore_ps(dst + k, m,
                        _mm256_add_ps(_mm256_maskload_ps(a + k, m),
                                      _mm256_maskload_ps(b + k, m)));
  }
}

__attribute__((target("avx2"))) void MulRowsAvx2(float* dst, const float* a,
                                                 const float* b, uint32_t d) {
  uint32_t k = 0;
  for (; k + 8 <= d; k += 8) {
    _mm256_storeu_ps(
        dst + k, _mm256_mul_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k)));
  }
  if (k < d) {
    const __m256i m = TailMask8(d - k);
    _mm256_maskstore_ps(dst + k, m,
                        _mm256_mul_ps(_mm256_maskload_ps(a + k, m),
                                      _mm256_maskload_ps(b + k, m)));
  }
}

// ---------------------------------------------------------------------------
// AVX-512F tier: 16-lane kernels. Tails use the native lane masks.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f"))) inline __m512 Clamp16(__m512 v, __m512 lo,
                                                         __m512 hi) {
  return _mm512_min_ps(_mm512_max_ps(v, lo), hi);
}

__attribute__((target("avx512f"))) void CopyRowAvx512(float* dst,
                                                      const float* src,
                                                      uint32_t d) {
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    _mm512_storeu_ps(dst + k, _mm512_loadu_ps(src + k));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    _mm512_mask_storeu_ps(dst + k, m, _mm512_maskz_loadu_ps(m, src + k));
  }
}

__attribute__((target("avx512f"))) void AxpyNegAvx512(float* row,
                                                      const float* g,
                                                      uint32_t d, float lr) {
  const __m512 vlr = _mm512_set1_ps(lr);
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 vg = _mm512_loadu_ps(g + k);
    const __m512 vr = _mm512_loadu_ps(row + k);
    _mm512_storeu_ps(row + k, _mm512_sub_ps(vr, _mm512_mul_ps(vlr, vg)));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    const __m512 vg = _mm512_maskz_loadu_ps(m, g + k);
    const __m512 vr = _mm512_maskz_loadu_ps(m, row + k);
    _mm512_mask_storeu_ps(row + k, m,
                          _mm512_sub_ps(vr, _mm512_mul_ps(vlr, vg)));
  }
}

__attribute__((target("avx512f"))) void AxpyNegFmaAvx512(float* row,
                                                         const float* g,
                                                         uint32_t d,
                                                         float lr) {
  const __m512 vlr = _mm512_set1_ps(lr);
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 vg = _mm512_loadu_ps(g + k);
    const __m512 vr = _mm512_loadu_ps(row + k);
    _mm512_storeu_ps(row + k, _mm512_fnmadd_ps(vlr, vg, vr));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    const __m512 vg = _mm512_maskz_loadu_ps(m, g + k);
    const __m512 vr = _mm512_maskz_loadu_ps(m, row + k);
    _mm512_mask_storeu_ps(row + k, m, _mm512_fnmadd_ps(vlr, vg, vr));
  }
}

__attribute__((target("avx512f"))) void AxpyClipNegAvx512(float* row,
                                                          const float* g,
                                                          uint32_t d, float lr,
                                                          float bound) {
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 vhi = _mm512_set1_ps(bound);
  const __m512 vlo = _mm512_set1_ps(-bound);
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 vg = Clamp16(_mm512_loadu_ps(g + k), vlo, vhi);
    const __m512 vr = _mm512_loadu_ps(row + k);
    _mm512_storeu_ps(row + k, _mm512_sub_ps(vr, _mm512_mul_ps(vlr, vg)));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    const __m512 vg = Clamp16(_mm512_maskz_loadu_ps(m, g + k), vlo, vhi);
    const __m512 vr = _mm512_maskz_loadu_ps(m, row + k);
    _mm512_mask_storeu_ps(row + k, m,
                          _mm512_sub_ps(vr, _mm512_mul_ps(vlr, vg)));
  }
}

__attribute__((target("avx512f"))) void AxpyClipNegFmaAvx512(
    float* row, const float* g, uint32_t d, float lr, float bound) {
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 vhi = _mm512_set1_ps(bound);
  const __m512 vlo = _mm512_set1_ps(-bound);
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 vg = Clamp16(_mm512_loadu_ps(g + k), vlo, vhi);
    const __m512 vr = _mm512_loadu_ps(row + k);
    _mm512_storeu_ps(row + k, _mm512_fnmadd_ps(vlr, vg, vr));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    const __m512 vg = Clamp16(_mm512_maskz_loadu_ps(m, g + k), vlo, vhi);
    const __m512 vr = _mm512_maskz_loadu_ps(m, row + k);
    _mm512_mask_storeu_ps(row + k, m, _mm512_fnmadd_ps(vlr, vg, vr));
  }
}

__attribute__((target("avx512f"))) void AccumClipAvx512(float* acc,
                                                        const float* g,
                                                        uint32_t d,
                                                        float bound) {
  const __m512 vhi = _mm512_set1_ps(bound);
  const __m512 vlo = _mm512_set1_ps(-bound);
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 vg = Clamp16(_mm512_loadu_ps(g + k), vlo, vhi);
    _mm512_storeu_ps(acc + k, _mm512_add_ps(_mm512_loadu_ps(acc + k), vg));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    const __m512 vg = Clamp16(_mm512_maskz_loadu_ps(m, g + k), vlo, vhi);
    _mm512_mask_storeu_ps(
        acc + k, m, _mm512_add_ps(_mm512_maskz_loadu_ps(m, acc + k), vg));
  }
}

__attribute__((target("avx512f"))) void AddScaledAvx512(float* dst,
                                                        const float* src,
                                                        uint32_t d, float a) {
  const __m512 va = _mm512_set1_ps(a);
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 vs = _mm512_mul_ps(va, _mm512_loadu_ps(src + k));
    _mm512_storeu_ps(dst + k, _mm512_add_ps(_mm512_loadu_ps(dst + k), vs));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    const __m512 vs = _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m, src + k));
    _mm512_mask_storeu_ps(
        dst + k, m, _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst + k), vs));
  }
}

__attribute__((target("avx512f"))) void AddScaledFmaAvx512(float* dst,
                                                           const float* src,
                                                           uint32_t d,
                                                           float a) {
  const __m512 va = _mm512_set1_ps(a);
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    const __m512 vs = _mm512_loadu_ps(src + k);
    _mm512_storeu_ps(dst + k,
                     _mm512_fmadd_ps(va, vs, _mm512_loadu_ps(dst + k)));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    const __m512 vs = _mm512_maskz_loadu_ps(m, src + k);
    _mm512_mask_storeu_ps(
        dst + k, m, _mm512_fmadd_ps(va, vs, _mm512_maskz_loadu_ps(m, dst + k)));
  }
}


__attribute__((target("avx512f"))) void AddRowsAvx512(float* dst,
                                                      const float* a,
                                                      const float* b,
                                                      uint32_t d) {
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    _mm512_storeu_ps(
        dst + k, _mm512_add_ps(_mm512_loadu_ps(a + k), _mm512_loadu_ps(b + k)));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    _mm512_mask_storeu_ps(dst + k, m,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m, a + k),
                                        _mm512_maskz_loadu_ps(m, b + k)));
  }
}

__attribute__((target("avx512f"))) void MulRowsAvx512(float* dst,
                                                      const float* a,
                                                      const float* b,
                                                      uint32_t d) {
  uint32_t k = 0;
  for (; k + 16 <= d; k += 16) {
    _mm512_storeu_ps(
        dst + k, _mm512_mul_ps(_mm512_loadu_ps(a + k), _mm512_loadu_ps(b + k)));
  }
  if (k < d) {
    const __mmask16 m = (1u << (d - k)) - 1u;
    _mm512_mask_storeu_ps(dst + k, m,
                          _mm512_mul_ps(_mm512_maskz_loadu_ps(m, a + k),
                                        _mm512_maskz_loadu_ps(m, b + k)));
  }
}

// ---------------------------------------------------------------------------
// Dense tier: Linear forward/backward and the DLRM dot interaction. Each
// kernel has one lane-generic body, instantiated for AVX2 and AVX-512
// through an Ops struct of target-attributed one-liners (AVX2 keeps the
// row-wise Linear backward, see LinearBackwardRows); every entry point is
// `flatten`, so its body and ops inline into one function built for that
// target. Every reduction keeps one independent sum per lane, added in
// the scalar loop's order: lanes are samples (Linear forward), partners (dot
// interaction), or inputs / outputs (the backwards) — one sum's terms are
// never split across lanes. Zero gradients are skipped with a masked add, so
// a skipped term leaves its sum untouched exactly as the scalar `continue`.
// ---------------------------------------------------------------------------

// Per-thread scratch for the kernels that re-lay out a block of their input.
// It grows to the largest block seen, so steady-state calls allocate nothing;
// noinline keeps `flatten` from copying the growth path into every kernel.
__attribute__((noinline)) float* Scratch(size_t n) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

struct Avx2Ops {
  using V = __m256;
  using M = __m256i;
  static constexpr size_t kLanes = 8;
  __attribute__((target("avx2"))) static M Lanes(size_t n) {
    return TailMask8(static_cast<uint32_t>(n));
  }
  // Lanes lo .. hi-1.
  __attribute__((target("avx2"))) static M Range(size_t lo, size_t hi) {
    return _mm256_andnot_si256(Lanes(lo), Lanes(hi));
  }
  __attribute__((target("avx2"))) static V Zero() {
    return _mm256_setzero_ps();
  }
  __attribute__((target("avx2"))) static V Set1(float a) {
    return _mm256_set1_ps(a);
  }
  __attribute__((target("avx2"))) static V Load(const float* p) {
    return _mm256_loadu_ps(p);
  }
  __attribute__((target("avx2"))) static V LoadM(const float* p, M m) {
    return _mm256_maskload_ps(p, m);
  }
  __attribute__((target("avx2"))) static void Store(float* p, V v) {
    _mm256_storeu_ps(p, v);
  }
  __attribute__((target("avx2"))) static void StoreM(float* p, V v, M m) {
    _mm256_maskstore_ps(p, m, v);
  }
  __attribute__((target("avx2"))) static V Add(V a, V b) {
    return _mm256_add_ps(a, b);
  }
  __attribute__((target("avx2"))) static V Mul(V a, V b) {
    return _mm256_mul_ps(a, b);
  }
  // Lanes of v that are not +-0; NaN counts as non-zero, like !(g == 0).
  __attribute__((target("avx2"))) static M NonZero(V v) {
    return _mm256_castps_si256(
        _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_NEQ_UQ));
  }
  // acc + v on the lanes of m, acc unchanged on the others.
  __attribute__((target("avx2"))) static V AddIf(V acc, V v, M m) {
    return _mm256_blendv_ps(acc, _mm256_add_ps(acc, v),
                            _mm256_castsi256_ps(m));
  }
};

struct Avx512Ops {
  using V = __m512;
  using M = __mmask16;
  static constexpr size_t kLanes = 16;
  __attribute__((target("avx512f"))) static M Lanes(size_t n) {
    return static_cast<M>((1u << n) - 1u);
  }
  __attribute__((target("avx512f"))) static M Range(size_t lo, size_t hi) {
    return static_cast<M>(Lanes(hi) & ~Lanes(lo));
  }
  __attribute__((target("avx512f"))) static V Zero() {
    return _mm512_setzero_ps();
  }
  __attribute__((target("avx512f"))) static V Set1(float a) {
    return _mm512_set1_ps(a);
  }
  __attribute__((target("avx512f"))) static V Load(const float* p) {
    return _mm512_loadu_ps(p);
  }
  __attribute__((target("avx512f"))) static V LoadM(const float* p, M m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  __attribute__((target("avx512f"))) static void Store(float* p, V v) {
    _mm512_storeu_ps(p, v);
  }
  __attribute__((target("avx512f"))) static void StoreM(float* p, V v, M m) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  __attribute__((target("avx512f"))) static V Add(V a, V b) {
    return _mm512_add_ps(a, b);
  }
  __attribute__((target("avx512f"))) static V Mul(V a, V b) {
    return _mm512_mul_ps(a, b);
  }
  __attribute__((target("avx512f"))) static M NonZero(V v) {
    return _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_NEQ_UQ);
  }
  __attribute__((target("avx512f"))) static V AddIf(V acc, V v, M m) {
    return _mm512_mask_add_ps(acc, m, acc, v);
  }
};

// The bodies below pass vectors between inline functions that only ever run
// inlined into their target-attributed entry points, so GCC's note that such
// a call would change the ABI outside that target does not apply.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// Lanes are samples: each block of kLanes samples is transposed into
// scratch (input i of sample s at xt[i * L + s]), and each output's sum
// starts from bias[o] and adds w[o][i] * x[i] for i ascending in its lane.
// Four outputs share a pass over the block; a partial group repeats the
// last output and stores only the real ones.
template <class Ops>
void LinearForwardLanes(const float* x, const float* w, const float* bias,
                        size_t batch, size_t in, size_t out, float* y) {
  using V = typename Ops::V;
  constexpr size_t L = Ops::kLanes;
  constexpr size_t kOuts = 4;
  float* xt = Scratch((in + out + kOuts) * L);
  float* yt = xt + in * L;
  for (size_t b0 = 0; b0 < batch; b0 += L) {
    const size_t n = std::min(L, batch - b0);
    const float* xb = x + b0 * in;
    for (size_t i = 0; i < in; ++i) {
      for (size_t s = 0; s < n; ++s) xt[i * L + s] = xb[s * in + i];
      for (size_t s = n; s < L; ++s) xt[i * L + s] = 0.0f;
    }
    for (size_t o0 = 0; o0 < out; o0 += kOuts) {
      const float* wr[kOuts];
      V acc[kOuts];
      for (size_t r = 0; r < kOuts; ++r) {
        const size_t o = std::min(o0 + r, out - 1);
        wr[r] = w + o * in;
        acc[r] = Ops::Set1(bias[o]);
      }
      for (size_t i = 0; i < in; ++i) {
        const V xv = Ops::Load(xt + i * L);
        for (size_t r = 0; r < kOuts; ++r) {
          acc[r] = Ops::Add(acc[r], Ops::Mul(Ops::Set1(wr[r][i]), xv));
        }
      }
      for (size_t r = 0; r < kOuts; ++r) Ops::Store(yt + (o0 + r) * L, acc[r]);
    }
    for (size_t s = 0; s < n; ++s) {
      float* yb = y + (b0 + s) * out;
      for (size_t o = 0; o < out; ++o) yb[o] = yt[o * L + s];
    }
  }
}

// The AVX-512 backward, in three passes of independent per-lane sums in
// scalar order: gb with lanes over outputs; gw in tiles of 4 outputs x 4
// vectors of inputs, b ascending; gx in tiles of 4 samples x 4 vectors of
// inputs, o ascending from zero. A partial tile repeats its last row and
// stores only the real rows; its partial vectors are masked.
template <class Ops>
void LinearBackwardLanes(const float* x, const float* w, const float* gy,
                         size_t batch, size_t in, size_t out, float* gx,
                         float* gw, float* gb) {
  using V = typename Ops::V;
  using M = typename Ops::M;
  constexpr size_t L = Ops::kLanes;
  constexpr size_t kRows = 4;
  constexpr size_t kVecs = 4;
  for (size_t o0 = 0; o0 < out; o0 += L) {
    const M lanes = Ops::Lanes(std::min(L, out - o0));
    V acc = Ops::LoadM(gb + o0, lanes);
    for (size_t b = 0; b < batch; ++b) {
      const V g = Ops::LoadM(gy + b * out + o0, lanes);
      acc = Ops::AddIf(acc, g, Ops::NonZero(g));
    }
    Ops::StoreM(gb + o0, acc, lanes);
  }
  for (size_t i0 = 0; i0 < in; i0 += kVecs * L) {
    M m[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      const size_t at = i0 + v * L;
      m[v] = Ops::Lanes(at < in ? std::min(L, in - at) : 0);
    }
    for (size_t o0 = 0; o0 < out; o0 += kRows) {
      float* gwr[kRows];
      size_t o[kRows];
      V acc[kRows][kVecs];
      for (size_t r = 0; r < kRows; ++r) {
        o[r] = std::min(o0 + r, out - 1);
        gwr[r] = gw + o[r] * in + i0;
        for (size_t v = 0; v < kVecs; ++v) {
          acc[r][v] = Ops::LoadM(gwr[r] + v * L, m[v]);
        }
      }
      for (size_t b = 0; b < batch; ++b) {
        V xv[kVecs];
        for (size_t v = 0; v < kVecs; ++v) {
          xv[v] = Ops::LoadM(x + b * in + i0 + v * L, m[v]);
        }
        const float* gyb = gy + b * out;
        for (size_t r = 0; r < kRows; ++r) {
          const V g = Ops::Set1(gyb[o[r]]);
          const M nz = Ops::NonZero(g);
          for (size_t v = 0; v < kVecs; ++v) {
            acc[r][v] = Ops::AddIf(acc[r][v], Ops::Mul(g, xv[v]), nz);
          }
        }
      }
      for (size_t r = 0; r < kRows && o0 + r < out; ++r) {
        for (size_t v = 0; v < kVecs; ++v) {
          Ops::StoreM(gwr[r] + v * L, acc[r][v], m[v]);
        }
      }
    }
    for (size_t b0 = 0; b0 < batch; b0 += kRows) {
      const float* gyr[kRows];
      V acc[kRows][kVecs];
      for (size_t r = 0; r < kRows; ++r) {
        gyr[r] = gy + std::min(b0 + r, batch - 1) * out;
        for (size_t v = 0; v < kVecs; ++v) acc[r][v] = Ops::Zero();
      }
      for (size_t o = 0; o < out; ++o) {
        V wv[kVecs];
        for (size_t v = 0; v < kVecs; ++v) {
          wv[v] = Ops::LoadM(w + o * in + i0 + v * L, m[v]);
        }
        for (size_t r = 0; r < kRows; ++r) {
          const V g = Ops::Set1(gyr[r][o]);
          const M nz = Ops::NonZero(g);
          for (size_t v = 0; v < kVecs; ++v) {
            acc[r][v] = Ops::AddIf(acc[r][v], Ops::Mul(g, wv[v]), nz);
          }
        }
      }
      for (size_t r = 0; r < kRows && b0 + r < batch; ++r) {
        for (size_t v = 0; v < kVecs; ++v) {
          Ops::StoreM(gx + (b0 + r) * in + i0 + v * L, acc[r][v], m[v]);
        }
      }
    }
  }
}

// Lanes are the partners j of vector i: the vectors are transposed into
// scratch (component t of vector j at vt[t * stride + j], with kLanes zero
// columns past k so every partner load stays in bounds), and each dot sums
// vi[t] * vj[t] over t ascending from zero. Four rows i share each block of
// partners, so their four sums run side by side; a row keeps only the lanes
// of its own partners j > i. Row i's dots start at row(i) = i(2k - i - 1)/2.
template <class Ops>
void DotInteractionLanes(const float* vecs, size_t k, size_t d, float* out) {
  using V = typename Ops::V;
  constexpr size_t L = Ops::kLanes;
  constexpr size_t kRows = 4;
  const size_t stride = k + L;
  float* vt = Scratch(d * stride);
  for (size_t t = 0; t < d; ++t) {
    for (size_t j = 0; j < k; ++j) vt[t * stride + j] = vecs[j * d + t];
    for (size_t j = k; j < stride; ++j) vt[t * stride + j] = 0.0f;
  }
  for (size_t i0 = 0; i0 + 1 < k; i0 += kRows) {
    const float* vi[kRows];
    for (size_t r = 0; r < kRows; ++r) vi[r] = vecs + std::min(i0 + r, k - 1) * d;
    for (size_t j0 = i0 + 1; j0 < k; j0 += L) {
      V acc[kRows];
      for (size_t r = 0; r < kRows; ++r) acc[r] = Ops::Zero();
      for (size_t t = 0; t < d; ++t) {
        const V vj = Ops::Load(vt + t * stride + j0);
        for (size_t r = 0; r < kRows; ++r) {
          acc[r] = Ops::Add(acc[r], Ops::Mul(Ops::Set1(vi[r][t]), vj));
        }
      }
      const size_t hi = std::min(L, k - j0);
      for (size_t r = 0; r < kRows; ++r) {
        const size_t i = i0 + r;
        const size_t lo = i + 1 > j0 ? i + 1 - j0 : 0;
        if (i + 1 >= k || lo >= hi) continue;
        // Lane s holds pair (i, j0 + s), at row(i) + j0 + s - i - 1.
        float* lane0 = out + i * (2 * k - i - 1) / 2 + j0 - (i + 1);
        Ops::StoreM(lane0, acc[r], Ops::Range(lo, hi));
      }
    }
  }
}

// Lanes are the components t of a vector's gradient: one register per
// vector m, adding g(m, p) * vec(p) over partners p ascending. The pair
// gradients are first spread into a k x k matrix with a zero diagonal, so
// that four vectors walk the same partner sequence side by side (the zero
// skips a vector as its own partner, like any zero gradient).
template <class Ops>
void DotInteractionBackwardLanes(const float* vecs, const float* grad_pairs,
                                 size_t k, size_t d, float* grad_vecs) {
  using V = typename Ops::V;
  using M = typename Ops::M;
  constexpr size_t L = Ops::kLanes;
  constexpr size_t kRows = 4;
  float* g = Scratch(k * k);
  for (size_t i = 0; i < k; ++i) {
    g[i * k + i] = 0.0f;
    for (size_t j = i + 1; j < k; ++j) g[i * k + j] = g[j * k + i] = *grad_pairs++;
  }
  for (size_t m0 = 0; m0 < k; m0 += kRows) {
    const float* gm[kRows];
    float* gv[kRows];
    for (size_t r = 0; r < kRows; ++r) {
      const size_t m = std::min(m0 + r, k - 1);
      gm[r] = g + m * k;
      gv[r] = grad_vecs + m * d;
    }
    for (size_t t0 = 0; t0 < d; t0 += L) {
      const M lanes = Ops::Lanes(std::min(L, d - t0));
      V acc[kRows];
      for (size_t r = 0; r < kRows; ++r) acc[r] = Ops::LoadM(gv[r] + t0, lanes);
      for (size_t p = 0; p < k; ++p) {
        const V vp = Ops::LoadM(vecs + p * d + t0, lanes);
        for (size_t r = 0; r < kRows; ++r) {
          const V gp = Ops::Set1(gm[r][p]);
          acc[r] = Ops::AddIf(acc[r], Ops::Mul(gp, vp), Ops::NonZero(gp));
        }
      }
      for (size_t r = 0; r < kRows && m0 + r < k; ++r) {
        Ops::StoreM(gv[r] + t0, acc[r], lanes);
      }
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

__attribute__((target("avx2"), flatten)) void LinearForwardAvx2(
    const float* x, const float* w, const float* bias, size_t batch, size_t in,
    size_t out, float* y) {
  LinearForwardLanes<Avx2Ops>(x, w, bias, batch, in, out, y);
}

void LinearBackwardAvx2(const float* x, const float* w, const float* gy,
                        size_t batch, size_t in, size_t out, float* gx,
                        float* gw, float* gb) {
  LinearBackwardRows(x, w, gy, batch, in, out, gx, gw, gb, &AddScaledAvx2);
}

__attribute__((target("avx2"), flatten)) void DotInteractionAvx2(
    const float* vecs, size_t k, size_t d, float* out) {
  DotInteractionLanes<Avx2Ops>(vecs, k, d, out);
}

__attribute__((target("avx2"), flatten)) void DotInteractionBackwardAvx2(
    const float* vecs, const float* grad_pairs, size_t k, size_t d,
    float* grad_vecs) {
  DotInteractionBackwardLanes<Avx2Ops>(vecs, grad_pairs, k, d, grad_vecs);
}

__attribute__((target("avx512f"), flatten)) void LinearForwardAvx512(
    const float* x, const float* w, const float* bias, size_t batch, size_t in,
    size_t out, float* y) {
  LinearForwardLanes<Avx512Ops>(x, w, bias, batch, in, out, y);
}

__attribute__((target("avx512f"), flatten)) void LinearBackwardAvx512(
    const float* x, const float* w, const float* gy, size_t batch, size_t in,
    size_t out, float* gx, float* gw, float* gb) {
  LinearBackwardLanes<Avx512Ops>(x, w, gy, batch, in, out, gx, gw, gb);
}

__attribute__((target("avx512f"), flatten)) void DotInteractionAvx512(
    const float* vecs, size_t k, size_t d, float* out) {
  DotInteractionLanes<Avx512Ops>(vecs, k, d, out);
}

__attribute__((target("avx512f"), flatten)) void DotInteractionBackwardAvx512(
    const float* vecs, const float* grad_pairs, size_t k, size_t d,
    float* grad_vecs) {
  DotInteractionBackwardLanes<Avx512Ops>(vecs, grad_pairs, k, d, grad_vecs);
}

// The dense-tier kernels are exact in both modes: only the axpy kernels have
// fused variants.
constexpr detail::Kernels kAvx2Kernels = {
    &CopyRowAvx2,        &AxpyNegAvx2,        &AxpyClipNegAvx2,
    &AccumClipAvx2,      &AddScaledAvx2,      &AddRowsAvx2,
    &MulRowsAvx2,        &LinearForwardAvx2,  &LinearBackwardAvx2,
    &DotInteractionAvx2, &DotInteractionBackwardAvx2};

constexpr detail::Kernels kAvx2FusedKernels = {
    &CopyRowAvx2,        &AxpyNegFmaAvx2,     &AxpyClipNegFmaAvx2,
    &AccumClipAvx2,      &AddScaledFmaAvx2,   &AddRowsAvx2,
    &MulRowsAvx2,        &LinearForwardAvx2,  &LinearBackwardAvx2,
    &DotInteractionAvx2, &DotInteractionBackwardAvx2};

constexpr detail::Kernels kAvx512Kernels = {
    &CopyRowAvx512,        &AxpyNegAvx512,        &AxpyClipNegAvx512,
    &AccumClipAvx512,      &AddScaledAvx512,      &AddRowsAvx512,
    &MulRowsAvx512,        &LinearForwardAvx512,  &LinearBackwardAvx512,
    &DotInteractionAvx512, &DotInteractionBackwardAvx512};

constexpr detail::Kernels kAvx512FusedKernels = {
    &CopyRowAvx512,        &AxpyNegFmaAvx512,     &AxpyClipNegFmaAvx512,
    &AccumClipAvx512,      &AddScaledFmaAvx512,   &AddRowsAvx512,
    &MulRowsAvx512,        &LinearForwardAvx512,  &LinearBackwardAvx512,
    &DotInteractionAvx512, &DotInteractionBackwardAvx512};

#endif  // CAFE_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

Tier DetectHost() {
#if defined(CAFE_SIMD_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Tier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

std::atomic<Tier> g_active_tier{Tier::kScalar};
std::atomic<bool> g_fused_fma{false};

const detail::Kernels* TableFor(Tier tier, bool fused) {
#if defined(CAFE_SIMD_X86)
  switch (tier) {
    case Tier::kAvx512:
      return fused ? &kAvx512FusedKernels : &kAvx512Kernels;
    case Tier::kAvx2:
      return fused ? &kAvx2FusedKernels : &kAvx2Kernels;
    case Tier::kScalar:
      break;
  }
#else
  (void)tier;
  (void)fused;
#endif
  return &kScalarKernels;
}

void Rebind() {
  detail::g_kernels.store(
      TableFor(g_active_tier.load(std::memory_order_relaxed),
               g_fused_fma.load(std::memory_order_relaxed)),
      std::memory_order_release);
}

// Upgrades the constant-initialized scalar table to the host's best tier
// before main() runs.
struct DispatchInit {
  DispatchInit() {
    g_active_tier.store(DetectHost(), std::memory_order_relaxed);
    Rebind();
  }
};
DispatchInit g_dispatch_init;

}  // namespace

namespace detail {
std::atomic<const Kernels*> g_kernels{&kScalarKernels};
}  // namespace detail

Tier DetectedTier() {
  static const Tier tier = DetectHost();
  return tier;
}

Tier ActiveTier() { return g_active_tier.load(std::memory_order_relaxed); }

Tier SetActiveTier(Tier tier) {
  const Tier capped = std::min(tier, DetectedTier());
  g_active_tier.store(capped, std::memory_order_relaxed);
  Rebind();
  return capped;
}

void ResetActiveTier() { (void)SetActiveTier(DetectedTier()); }

void SetFusedFma(bool enable) {
  g_fused_fma.store(enable, std::memory_order_relaxed);
  Rebind();
}

bool FusedFma() { return g_fused_fma.load(std::memory_order_relaxed); }

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace simd
}  // namespace cafe
