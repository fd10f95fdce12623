#pragma once
// Double-precision SIMD vector wrapper.
//
// The paper hand-vectorizes the inner stencil loop with SSE2 so that the
// kernel keeps up with L2 bandwidth ("the vectorization ensures that the
// kernel remains memory-bound but cannot accelerate the execution beyond
// that"). We wrap the widest vector the compile target offers (SSE2 is the
// guaranteed x86-64 baseline, AVX2/AVX-512 when -march allows) behind one
// type so kernels are written once.

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX512F__)
#include <immintrin.h>
#elif defined(__AVX2__) || defined(__AVX__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(__x86_64__)
#include <emmintrin.h>
#define CATS_SSE2_ONLY 1
#else
#define CATS_SCALAR_ONLY 1
#endif

namespace cats::simd {

/// Read-prefetch hint with low temporal locality (kernel prefetch_front
/// implementations use it on the leading wavefront edge); no-op where the
/// builtin is unavailable.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 1);
#else
  (void)p;
#endif
}

#if defined(__AVX512F__)

inline constexpr int kWidth = 8;
struct VecD {
  static constexpr int width = 8;
  using elem_t = double;
  __m512d v;
  static VecD load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static VecD load_aligned(const double* p) { return {_mm512_load_pd(p)}; }
  static VecD broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static VecD zero() { return {_mm512_setzero_pd()}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  void store_aligned(double* p) const { _mm512_store_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm512_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  /// Lane-concatenating extract: lane i of the result is lane i+K of the
  /// 2*width-lane concatenation a:b (K in [0, width]). This is the register
  /// shift-combine the temporal-vectorized micro-kernels build every
  /// x-neighborhood from — two aligned loads plus one shuffle replace each
  /// unaligned reload.
  template <int K>
  static VecD shuffle(VecD a, VecD b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) {
      return a;
    } else if constexpr (K == width) {
      return b;
    } else {
      return {_mm512_castsi512_pd(_mm512_alignr_epi64(
          _mm512_castpd_si512(b.v), _mm512_castpd_si512(a.v), K))};
    }
  }
  double hsum() const { return _mm512_reduce_add_pd(v); }
};
inline constexpr const char* kIsaName = "AVX-512F";

#elif defined(__AVX2__) || defined(__AVX__)

inline constexpr int kWidth = 4;
struct VecD {
  static constexpr int width = 4;
  using elem_t = double;
  __m256d v;
  static VecD load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecD load_aligned(const double* p) { return {_mm256_load_pd(p)}; }
  static VecD broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void store_aligned(double* p) const { _mm256_store_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) {
#if defined(__FMA__)
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
    return a * b + c;
#endif
  }
  /// See the AVX-512 overload: lane i of the result = lane i+K of a:b.
  template <int K>
  static VecD shuffle(VecD a, VecD b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) {
      return a;
    } else if constexpr (K == width) {
      return b;
    } else if constexpr (K == 2) {
      return {_mm256_permute2f128_pd(a.v, b.v, 0x21)};
    } else if constexpr (K == 1) {
      const __m256d t = _mm256_permute2f128_pd(a.v, b.v, 0x21);  // a2 a3 b0 b1
      return {_mm256_shuffle_pd(a.v, t, 0b0101)};                // a1 a2 a3 b0
    } else {  // K == 3
      const __m256d t = _mm256_permute2f128_pd(a.v, b.v, 0x21);  // a2 a3 b0 b1
      return {_mm256_shuffle_pd(t, b.v, 0b0101)};                // a3 b0 b1 b2
    }
  }
  double hsum() const {
    __m128d lo = _mm256_castpd256_pd128(v);
    __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
  }
};
inline constexpr const char* kIsaName = "AVX2";

#elif defined(CATS_SSE2_ONLY)

inline constexpr int kWidth = 2;
struct VecD {
  static constexpr int width = 2;
  using elem_t = double;
  __m128d v;
  static VecD load(const double* p) { return {_mm_loadu_pd(p)}; }
  static VecD load_aligned(const double* p) { return {_mm_load_pd(p)}; }
  static VecD broadcast(double x) { return {_mm_set1_pd(x)}; }
  static VecD zero() { return {_mm_setzero_pd()}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  void store_aligned(double* p) const { _mm_store_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) { return a * b + c; }
  /// See the AVX-512 overload: lane i of the result = lane i+K of a:b.
  template <int K>
  static VecD shuffle(VecD a, VecD b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) {
      return a;
    } else if constexpr (K == width) {
      return b;
    } else {  // K == 1
      return {_mm_shuffle_pd(a.v, b.v, 1)};  // a1 b0
    }
  }
  double hsum() const {
    return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
  }
};
inline constexpr const char* kIsaName = "SSE2";

#else  // portable fallback

inline constexpr int kWidth = 1;
struct VecD {
  static constexpr int width = 1;
  using elem_t = double;
  double v;
  static VecD load(const double* p) { return {*p}; }
  static VecD load_aligned(const double* p) { return {*p}; }
  static VecD broadcast(double x) { return {x}; }
  static VecD zero() { return {0.0}; }
  void store(double* p) const { *p = v; }
  void store_aligned(double* p) const { *p = v; }
  friend VecD operator+(VecD a, VecD b) { return {a.v + b.v}; }
  friend VecD operator-(VecD a, VecD b) { return {a.v - b.v}; }
  friend VecD operator*(VecD a, VecD b) { return {a.v * b.v}; }
  static VecD fma(VecD a, VecD b, VecD c) { return {a.v * b.v + c.v}; }
  /// Degenerate width-1 shuffle: K == 0 selects a, K == 1 (== width) b.
  template <int K>
  static VecD shuffle(VecD a, VecD b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) return a;
    else return b;
  }
  double hsum() const { return v; }
};
inline constexpr const char* kIsaName = "scalar";

#endif

// Single-precision vector with the same interface (CATS takes "the memory
// size of a data type" as a parameter — float doubles every wavefront's
// reach, which Eq. 1/2 account for via the kernel's element_bytes()).
#if defined(__AVX512F__)

struct VecF {
  static constexpr int width = 16;
  using elem_t = float;
  __m512 v;
  static VecF load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static VecF load_aligned(const float* p) { return {_mm512_load_ps(p)}; }
  static VecF broadcast(float x) { return {_mm512_set1_ps(x)}; }
  static VecF zero() { return {_mm512_setzero_ps()}; }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  void store_aligned(float* p) const { _mm512_store_ps(p, v); }
  friend VecF operator+(VecF a, VecF b) { return {_mm512_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm512_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm512_mul_ps(a.v, b.v)}; }
  static VecF fma(VecF a, VecF b, VecF c) {
    return {_mm512_fmadd_ps(a.v, b.v, c.v)};
  }
  /// See VecD::shuffle: lane i of the result = lane i+K of a:b.
  template <int K>
  static VecF shuffle(VecF a, VecF b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) {
      return a;
    } else if constexpr (K == width) {
      return b;
    } else {
      return {_mm512_castsi512_ps(_mm512_alignr_epi32(
          _mm512_castps_si512(b.v), _mm512_castps_si512(a.v), K))};
    }
  }
};

#elif defined(__AVX2__) || defined(__AVX__)

struct VecF {
  static constexpr int width = 8;
  using elem_t = float;
  __m256 v;
  static VecF load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static VecF load_aligned(const float* p) { return {_mm256_load_ps(p)}; }
  static VecF broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static VecF zero() { return {_mm256_setzero_ps()}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  void store_aligned(float* p) const { _mm256_store_ps(p, v); }
  friend VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
  static VecF fma(VecF a, VecF b, VecF c) {
#if defined(__FMA__)
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
    return a * b + c;
#endif
  }
  /// See VecD::shuffle: lane i of the result = lane i+K of a:b. With AVX2 a
  /// pair of cross-lane permutes plus a blend does it in-register; plain AVX
  /// has no 32-bit cross-lane permute, so it round-trips through a stack
  /// buffer (still branch-free and correct, just slower).
  template <int K>
  static VecF shuffle(VecF a, VecF b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) {
      return a;
    } else if constexpr (K == width) {
      return b;
    } else {
#if defined(__AVX2__)
      const __m256i idx = _mm256_setr_epi32(
          (0 + K) & 7, (1 + K) & 7, (2 + K) & 7, (3 + K) & 7, (4 + K) & 7,
          (5 + K) & 7, (6 + K) & 7, (7 + K) & 7);
      const __m256 pa = _mm256_permutevar8x32_ps(a.v, idx);
      const __m256 pb = _mm256_permutevar8x32_ps(b.v, idx);
      return {_mm256_blend_ps(pa, pb, (0xFF << (8 - K)) & 0xFF)};
#else
      alignas(32) float tmp[16];
      a.store_aligned(tmp);
      b.store_aligned(tmp + 8);
      return load(tmp + K);
#endif
    }
  }
};

#elif defined(CATS_SSE2_ONLY)

struct VecF {
  static constexpr int width = 4;
  using elem_t = float;
  __m128 v;
  static VecF load(const float* p) { return {_mm_loadu_ps(p)}; }
  static VecF load_aligned(const float* p) { return {_mm_load_ps(p)}; }
  static VecF broadcast(float x) { return {_mm_set1_ps(x)}; }
  static VecF zero() { return {_mm_setzero_ps()}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }
  void store_aligned(float* p) const { _mm_store_ps(p, v); }
  friend VecF operator+(VecF a, VecF b) { return {_mm_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm_mul_ps(a.v, b.v)}; }
  static VecF fma(VecF a, VecF b, VecF c) { return a * b + c; }
  /// See VecD::shuffle: lane i of the result = lane i+K of a:b.
  template <int K>
  static VecF shuffle(VecF a, VecF b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) {
      return a;
    } else if constexpr (K == width) {
      return b;
    } else if constexpr (K == 2) {
      return {_mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(1, 0, 3, 2))};  // a2 a3 b0 b1
    } else if constexpr (K == 1) {
      const __m128 t = _mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(0, 0, 3, 3));
      return {_mm_shuffle_ps(a.v, t, _MM_SHUFFLE(2, 0, 2, 1))};  // a1 a2 a3 b0
    } else {  // K == 3
      const __m128 t = _mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(0, 0, 3, 3));
      return {_mm_shuffle_ps(t, b.v, _MM_SHUFFLE(2, 1, 2, 0))};  // a3 b0 b1 b2
    }
  }
};

#else

struct VecF {
  static constexpr int width = 1;
  using elem_t = float;
  float v;
  static VecF load(const float* p) { return {*p}; }
  static VecF load_aligned(const float* p) { return {*p}; }
  static VecF broadcast(float x) { return {x}; }
  static VecF zero() { return {0.0f}; }
  void store(float* p) const { *p = v; }
  void store_aligned(float* p) const { *p = v; }
  friend VecF operator+(VecF a, VecF b) { return {a.v + b.v}; }
  friend VecF operator-(VecF a, VecF b) { return {a.v - b.v}; }
  friend VecF operator*(VecF a, VecF b) { return {a.v * b.v}; }
  static VecF fma(VecF a, VecF b, VecF c) { return {a.v * b.v + c.v}; }
  /// Degenerate width-1 shuffle: K == 0 selects a, K == 1 (== width) b.
  template <int K>
  static VecF shuffle(VecF a, VecF b) {
    static_assert(K >= 0 && K <= width);
    if constexpr (K == 0) return a;
    else return b;
  }
};

#endif

/// In-register lane rotation: lane i of the result is lane (i+K) mod width of
/// v. rotate<K>(v) == shuffle<K>(v, v); the temporal-vectorized kernels use
/// shuffle directly (two source registers), rotate is the single-register
/// convenience form.
template <int K, class V>
inline V rotate(V v) {
  return V::template shuffle<K>(v, v);
}

#if defined(__AVX2__) || defined(__AVX__)
#if !defined(__AVX512F__)
/// In-register 4x4 transpose of four width-4 double vectors (classic
/// unpack + 128-bit-lane permute ladder).
inline void transpose4x4(VecD& r0, VecD& r1, VecD& r2, VecD& r3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0.v, r1.v);  // r00 r10 r02 r12
  const __m256d t1 = _mm256_unpackhi_pd(r0.v, r1.v);  // r01 r11 r03 r13
  const __m256d t2 = _mm256_unpacklo_pd(r2.v, r3.v);  // r20 r30 r22 r32
  const __m256d t3 = _mm256_unpackhi_pd(r2.v, r3.v);  // r21 r31 r23 r33
  r0.v = _mm256_permute2f128_pd(t0, t2, 0x20);
  r1.v = _mm256_permute2f128_pd(t1, t3, 0x20);
  r2.v = _mm256_permute2f128_pd(t0, t2, 0x31);
  r3.v = _mm256_permute2f128_pd(t1, t3, 0x31);
}
#endif
#elif defined(CATS_SSE2_ONLY)
/// In-register 4x4 transpose of four width-4 float vectors.
inline void transpose4x4(VecF& r0, VecF& r1, VecF& r2, VecF& r3) {
  _MM_TRANSPOSE4_PS(r0.v, r1.v, r2.v, r3.v);
}
#endif

/// Generic 4x4 transpose of the leading 4x4 lane block of four vectors;
/// lanes >= 4 pass through unchanged. Dedicated in-register overloads above
/// take precedence where the ISA has a cheap ladder; this fallback
/// round-trips through an aligned stack tile, which is fine off the hot path
/// (the temporal-vectorization scheme advances state with shuffle/rotate and
/// only needs transposes for layout packing/unpacking at chain boundaries).
template <class V>
  requires(V::width >= 4)
inline void transpose4x4(V& r0, V& r1, V& r2, V& r3) {
  using T = typename V::elem_t;
  alignas(64) T m[4][V::width];
  r0.store_aligned(m[0]);
  r1.store_aligned(m[1]);
  r2.store_aligned(m[2]);
  r3.store_aligned(m[3]);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      const T t = m[i][j];
      m[i][j] = m[j][i];
      m[j][i] = t;
    }
  }
  r0 = V::load_aligned(m[0]);
  r1 = V::load_aligned(m[1]);
  r2 = V::load_aligned(m[2]);
  r3 = V::load_aligned(m[3]);
}

/// Scalar 4x4 tile transpose — the width-agnostic form narrow builds (SSE2
/// VecD, scalar fallback) can always use.
template <class T>
inline void transpose4x4(T (&m)[4][4]) {
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      const T t = m[i][j];
      m[i][j] = m[j][i];
      m[j][i] = t;
    }
  }
}

/// Scalar float twin of VecF (see ScalarD below for the rationale).
struct ScalarF {
  static constexpr int width = 1;
  float v;
  static ScalarF load(const float* p) { return {*p}; }
  static ScalarF load_aligned(const float* p) { return {*p}; }
  static ScalarF broadcast(float x) { return {x}; }
  static ScalarF zero() { return {0.0f}; }
  void store(float* p) const { *p = v; }
  void store_aligned(float* p) const { *p = v; }
  friend ScalarF operator+(ScalarF a, ScalarF b) { return {a.v + b.v}; }
  friend ScalarF operator-(ScalarF a, ScalarF b) { return {a.v - b.v}; }
  friend ScalarF operator*(ScalarF a, ScalarF b) { return {a.v * b.v}; }
  static ScalarF fma(ScalarF a, ScalarF b, ScalarF c) {
#if defined(__FMA__) || defined(__AVX512F__)
    return {std::fmaf(a.v, b.v, c.v)};
#else
    return {a.v * b.v + c.v};
#endif
  }
};

/// Scalar twin of VecD with the identical interface. Kernels implement their
/// inner loop once, templated on the vector type; instantiating with ScalarD
/// yields the scalar path. Because both instantiations execute the same
/// operation tree per lane (and the build disables FP contraction), the SIMD
/// and scalar paths produce bit-identical results — the basis of the
/// bit-exact verification tests.
///
/// fma() preserves that pairing: exactly when the active VecD fuses
/// (hardware FMA present: __FMA__ or AVX-512), ScalarD uses std::fma, whose
/// single correctly-rounded step is bitwise identical to each vfmadd lane.
/// Otherwise both sides fall back to the same unfused multiply-add. Either
/// way the two paths stay bit-identical in every build configuration.
struct ScalarD {
  static constexpr int width = 1;
  double v;
  static ScalarD load(const double* p) { return {*p}; }
  static ScalarD load_aligned(const double* p) { return {*p}; }
  static ScalarD broadcast(double x) { return {x}; }
  static ScalarD zero() { return {0.0}; }
  void store(double* p) const { *p = v; }
  void store_aligned(double* p) const { *p = v; }
  friend ScalarD operator+(ScalarD a, ScalarD b) { return {a.v + b.v}; }
  friend ScalarD operator-(ScalarD a, ScalarD b) { return {a.v - b.v}; }
  friend ScalarD operator*(ScalarD a, ScalarD b) { return {a.v * b.v}; }
  static ScalarD fma(ScalarD a, ScalarD b, ScalarD c) {
#if defined(__FMA__) || defined(__AVX512F__)
    return {std::fma(a.v, b.v, c.v)};
#else
    return {a.v * b.v + c.v};
#endif
  }
  double hsum() const { return v; }
};

/// Element-type -> vector-family map. Kernels templated on their element type
/// (ConstStar2D<S, T>) pull their wide and scalar-twin vector types from
/// here so the one stencil body serves both precisions.
template <class T>
struct vec_traits;
template <>
struct vec_traits<double> {
  using Vec = VecD;
  using Scalar = ScalarD;
};
template <>
struct vec_traits<float> {
  using Vec = VecF;
  using Scalar = ScalarF;
};

}  // namespace cats::simd
