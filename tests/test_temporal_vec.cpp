// Temporal-vectorization tests (wave/temporal_vec.hpp and the kernels' TV
// chain bodies): the register primitives (shuffle / rotate / transpose), the
// sliding window's operand materialization, the chain-group driver over
// ragged diamond slices, and end-to-end equivalence. Every in-tree family
// declares tv_bit_exact — the TV body evaluates the identical per-point
// operation tree as the plain walk — so all comparisons here are bit-exact
// (frame ULP bound 0), not tolerance-based.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "check/oracle.hpp"
#include "check/probe_kernel.hpp"
#include "core/run.hpp"
#include "core/stencil.hpp"
#include "helpers.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/banded3d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const2d_f32.hpp"
#include "kernels/const3d.hpp"
#include "simd/vecd.hpp"
#include "wave/temporal_vec.hpp"

using namespace cats;
using cats::test::expect_bit_equal;

namespace {

// ---------------------------------------------------------------------------
// Register primitives
// ---------------------------------------------------------------------------

/// shuffle<K>(a, b): lane i of the result is lane i+K of the concatenation
/// a:b, for every K in [0, width].
template <class V, class T>
void check_shuffle_all_k() {
  constexpr int W = V::width;
  alignas(64) T in[2 * W];
  for (int i = 0; i < 2 * W; ++i) in[i] = static_cast<T>(i + 1) * T(1.25);
  const V a = V::load(in);
  const V b = V::load(in + W);
  alignas(64) T out[W];
  [&]<std::size_t... K>(std::index_sequence<K...>) {
    ((
        [&] {
          V::template shuffle<static_cast<int>(K)>(a, b).store(out);
          for (int i = 0; i < W; ++i) {
            EXPECT_EQ(out[i], in[i + K]) << "K=" << K << " lane " << i;
          }
        }(),
        void()),
     ...);
  }(std::make_index_sequence<W + 1>{});
}

template <class V, class T>
void check_rotate_all_k() {
  constexpr int W = V::width;
  alignas(64) T in[W];
  for (int i = 0; i < W; ++i) in[i] = static_cast<T>(i) - T(2.5);
  const V a = V::load(in);
  alignas(64) T out[W];
  [&]<std::size_t... K>(std::index_sequence<K...>) {
    ((
        [&] {
          simd::rotate<static_cast<int>(K)>(a).store(out);
          for (int i = 0; i < W; ++i) {
            EXPECT_EQ(out[i], in[(i + K) % W]) << "K=" << K << " lane " << i;
          }
        }(),
        void()),
     ...);
  }(std::make_index_sequence<W>{});
}

}  // namespace

TEST(TvSimd, ShuffleConcatenatesLanesVecD) {
  check_shuffle_all_k<simd::VecD, double>();
}

TEST(TvSimd, ShuffleConcatenatesLanesVecF) {
  check_shuffle_all_k<simd::VecF, float>();
}

TEST(TvSimd, RotateIsSelfShuffle) {
  check_rotate_all_k<simd::VecD, double>();
  check_rotate_all_k<simd::VecF, float>();
}

TEST(TvSimd, Transpose4x4TransposesLeadingBlock) {
  // Contract (vecd.hpp): the leading 4x4 lane block is transposed, lanes >= 4
  // pass through unchanged. On narrow builds (width < 4) only the scalar
  // tile form exists, which the else-branch covers.
  if constexpr (simd::VecD::width >= 4) {
    constexpr int W = simd::VecD::width;
    alignas(64) double m[4][W];
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < W; ++c) m[r][c] = 10.0 * r + c;
    simd::VecD v0 = simd::VecD::load(m[0]), v1 = simd::VecD::load(m[1]),
               v2 = simd::VecD::load(m[2]), v3 = simd::VecD::load(m[3]);
    simd::transpose4x4(v0, v1, v2, v3);
    alignas(64) double t[4][W];
    v0.store(t[0]);
    v1.store(t[1]);
    v2.store(t[2]);
    v3.store(t[3]);
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < W; ++c)
        EXPECT_EQ(t[r][c], c < 4 ? m[c][r] : m[r][c]) << r << "," << c;
  } else {
    double m[4][4];
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) m[r][c] = 10.0 * r + c;
    simd::transpose4x4(m);
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) EXPECT_EQ(m[r][c], 10.0 * c + r);
  }
}

// ---------------------------------------------------------------------------
// Sliding window
// ---------------------------------------------------------------------------

namespace {

/// get<O>() must equal an unaligned load at x + O for every O in [-S, S],
/// after prime() and after each advance().
template <int S>
void check_window_offsets() {
  using V = simd::VecD;
  constexpr int W = V::width;
  std::vector<double> row(static_cast<std::size_t>(8 * W + 2 * S));
  for (std::size_t i = 0; i < row.size(); ++i)
    row[i] = 0.5 * static_cast<double>(i) - 3.0;
  const double* base = row.data() + S;  // keep x - S in bounds

  wave::ShiftWindow<V, double, S> win;
  const int first = ((S + W - 1) / W) * W;  // x - Q*W stays in bounds
  win.prime(base, first);
  alignas(64) double got[W], want[W];
  for (int x = first; x + (win.Q + 1) * W <= 7 * W; x += W) {
    if (x != first) win.advance(base, x);
    [&]<std::size_t... K>(std::index_sequence<K...>) {
      ((
          [&] {
            constexpr int O = static_cast<int>(K) - S;
            win.template get<O>().store(got);
            V::load(base + x + O).store(want);
            for (int i = 0; i < W; ++i) {
              EXPECT_EQ(got[i], want[i]) << "x=" << x << " O=" << O;
            }
          }(),
          void()),
       ...);
    }(std::make_index_sequence<2 * S + 1>{});
  }
}

}  // namespace

TEST(TvWindow, OffsetsMatchUnalignedLoads) {
  check_window_offsets<1>();
  check_window_offsets<2>();
  check_window_offsets<3>();
  check_window_offsets<4>();
}

// ---------------------------------------------------------------------------
// Chain body: TV vs chunked-diagonal walk over ragged diamond slices
// ---------------------------------------------------------------------------

namespace {

/// Drive process_stages and process_stages_tv over the same staggered chain
/// groups on twin kernels and require bit-identical grids after every group.
/// The (offset, length) sweep covers every x0 alignment mod W and the
/// driver's range classes: sub-vector (scalar fallback), >= W with no full
/// aligned cell (two overlapping edge vectors), and wide interiors.
template <class K, class MakeKernel>
void check_chain_bodies(MakeKernel&& make, int width, int height,
                        const char* label) {
  K a = make();
  K b = make();
  // Lengths straddle both in-tree vector widths (8 for double, 16 for float
  // on 512-bit builds): sub-vector scalar fallback, exactly one vector,
  // one-past, no-full-aligned-cell, and wide interiors. Offsets cover every
  // x0 alignment mod 16 (hence mod 8 too).
  const std::array<int, 12> lens = {1, 3, 7, 8, 9, 15, 16, 17, 21, 33, 47, 65};
  int ymid = height / 2;
  int t0 = 1;
  for (int off = 0; off <= 16; ++off) {
    for (const int len : lens) {
      for (const int n : {2, 3, 4}) {
        WaveStage st[4];
        int built = 0;
        for (int g = 0; g < n; ++g) {
          const int x0 = off + g;
          const int x1 = std::min(off + len - g, width);
          if (x0 >= x1) break;
          st[built++] = WaveStage{t0 + g, ymid - g, x0, x1};
        }
        if (built < 2) continue;
        a.process_stages(st, built);
        b.process_stages_tv(st, built);
        // Advance t so buffer parities keep rotating; wrap y to stay interior.
        t0 = (t0 % 4) + 1;
        ymid = 2 * 4 + ((ymid + 3) % (height - 4 * 4));
      }
    }
  }
  std::vector<double> wa, wb;
  a.copy_result_to(wa, 0);
  b.copy_result_to(wb, 0);
  expect_bit_equal(wb, wa, (std::string(label) + " parity0").c_str());
  a.copy_result_to(wa, 1);
  b.copy_result_to(wb, 1);
  expect_bit_equal(wb, wa, (std::string(label) + " parity1").c_str());
}

}  // namespace

TEST(TvChainBody, Const2DRaggedSlicesBitExact) {
  check_chain_bodies<ConstStar2D<1>>(
      [] {
        ConstStar2D<1> k(90, 70, default_star2d_weights<1>());
        k.init(cats::test::init2d, 0.2);
        return k;
      },
      90, 70, "const2d");
}

TEST(TvChainBody, Const2DSlope2BitExact) {
  check_chain_bodies<ConstStar2D<2>>(
      [] {
        ConstStar2D<2> k(90, 70, default_star2d_weights<2>());
        k.init(cats::test::init2d, -0.4);
        return k;
      },
      90, 70, "const2d-s2");
}

TEST(TvChainBody, Banded2DRaggedSlicesBitExact) {
  check_chain_bodies<Banded2D<1>>(
      [] {
        Banded2D<1> k(90, 70);
        k.init(cats::test::init2d, 0.1);
        k.init_bands(cats::test::band_coeff);
        return k;
      },
      90, 70, "banded2d");
}

TEST(TvChainBody, Float2DRaggedSlicesBitExact) {
  check_chain_bodies<FloatStar2D<1>>(
      [] {
        FloatStar2D<1> k(90, 70, default_star2d_weights<1, float>());
        k.init(
            [](int x, int y) {
              return static_cast<float>(cats::test::init2d(x, y));
            },
            0.25f);
        return k;
      },
      90, 70, "const2d_f32");
}

// ---------------------------------------------------------------------------
// End-to-end: temporal_vec across schemes, unrolls, threads — bit-exact
// ---------------------------------------------------------------------------

namespace {

RunOptions tv_options(Scheme s, int threads = 2) {
  RunOptions opt;
  opt.scheme = s;
  opt.threads = threads;
  opt.cache_bytes = 32 * 1024;  // force multi-chunk / multi-tile plans
  opt.temporal_vec = true;
  return opt;
}

RunOptions plain_options(Scheme s, int threads = 2) {
  RunOptions opt;
  opt.scheme = s;
  opt.threads = threads;
  opt.cache_bytes = 32 * 1024;
  opt.unroll_t = 1;
  return opt;
}

template <class MakeKernel>
std::vector<double> run_dump(MakeKernel&& make, int T, const RunOptions& opt) {
  auto k = make();
  run(k, T, opt);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

template <class MakeKernel>
void check_tv_unrolls(MakeKernel&& make, int T, const char* label) {
  for (Scheme s : {Scheme::Cats1, Scheme::Cats2}) {
    const std::vector<double> want = run_dump(make, T, plain_options(s));
    for (int u : {0, 2, 3, 4}) {  // 0 = auto (engine default)
      for (int threads : {1, 2}) {
        RunOptions opt = tv_options(s, threads);
        opt.unroll_t = u;
        expect_bit_equal(run_dump(make, T, opt), want,
                         (std::string(label) + " " + scheme_name(s) +
                          " tv unroll=" + std::to_string(u) + " p" +
                          std::to_string(threads))
                             .c_str());
      }
    }
  }
}

}  // namespace

TEST(TemporalVec, Const2DAllUnrollsBitExact) {
  check_tv_unrolls(
      [] {
        ConstStar2D<1> k(73, 59, default_star2d_weights<1>());
        k.init(cats::test::init2d, 0.2);
        return k;
      },
      14, "const2d");
}

TEST(TemporalVec, Const2DSlope2BitExact) {
  check_tv_unrolls(
      [] {
        ConstStar2D<2> k(81, 63, default_star2d_weights<2>());
        k.init(cats::test::init2d, -0.3);
        return k;
      },
      10, "const2d-s2");
}

TEST(TemporalVec, Banded2DAllUnrollsBitExact) {
  check_tv_unrolls(
      [] {
        Banded2D<1> k(61, 47);
        k.init(cats::test::init2d, 0.1);
        k.init_bands(cats::test::band_coeff);
        return k;
      },
      12, "banded2d");
}

TEST(TemporalVec, Const3DAllUnrollsBitExact) {
  check_tv_unrolls(
      [] {
        ConstStar3D<1> k(23, 19, 17, default_star3d_weights<1>());
        k.init(cats::test::init3d, -0.1);
        return k;
      },
      9, "const3d");
}

TEST(TemporalVec, Banded3DAllUnrollsBitExact) {
  check_tv_unrolls(
      [] {
        Banded3D<1> k(21, 17, 15);
        k.init(cats::test::init3d, 0.05);
        k.init_bands(cats::test::band_coeff3);
        return k;
      },
      8, "banded3d");
}

// ---------------------------------------------------------------------------
// Schedule validation under TV
// ---------------------------------------------------------------------------

TEST(TemporalVec, OracleCleanWithTvRequested) {
  // An attached DepOracle observes per-point order, so resolve_unroll drops
  // fusion to 1 and the TV chain body never engages (it exists only inside
  // fused groups). The point of this test is that contract: temporal_vec
  // composed with oracle-instrumented runs stays a no-op — the schedule
  // underneath TV is exactly the one validated here, and the flag neither
  // perturbs it nor crashes on the fused-path-free walk.
  for (Scheme s : {Scheme::Cats1, Scheme::Cats2}) {
    const int W = 17, H = 13, D = 11, T = 7;
    check::ProbeKernel3D k(W, H, D, 1);
    check::DepOracle oracle(W, H, D, k.slope(), 4);
    RunOptions opt;
    opt.scheme = s;
    opt.threads = 4;
    opt.cache_bytes = 32 * 1024;
    opt.temporal_vec = true;
    opt.oracle = &oracle;
    run(k, T, opt);
    oracle.check_complete(T);
    EXPECT_TRUE(oracle.ok()) << "tv oracle " << scheme_name(s);
  }
}
