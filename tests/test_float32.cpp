// Single-precision kernel tests: bit-exact scheme equivalence in float
// (including the wave engine's fusion / temporal-vectorization paths) and
// the element-size effect on Eq. 1/2 tile sizing and residency
// certification.

#include <gtest/gtest.h>

#include <cmath>

#include "core/reference.hpp"
#include "core/run.hpp"
#include "helpers.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const2d_f32.hpp"
#include "plan/emit.hpp"

using namespace cats;
using cats::test::expect_bit_equal;

namespace {

FloatStar2D<1>::Weights weights_f32() {
  FloatStar2D<1>::Weights w;
  w.center = 0.5f;
  w.xm[0] = 0.13f;
  w.xp[0] = 0.12f;
  w.ym[0] = 0.14f;
  w.yp[0] = 0.11f;
  return w;
}

std::vector<double> run_f32(int W, int H, int T, Scheme s, int threads) {
  FloatStar2D<1> k(W, H, weights_f32());
  k.init([](int x, int y) { return static_cast<float>(cats::test::init2d(x, y)); },
         0.25f);
  RunOptions opt;
  opt.scheme = s;
  opt.threads = threads;
  opt.cache_bytes = 32 * 1024;
  run(k, T, opt);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

}  // namespace

TEST(Float32, AllSchemesBitExactVsReference) {
  FloatStar2D<1> ref(57, 43, weights_f32());
  ref.init([](int x, int y) { return static_cast<float>(cats::test::init2d(x, y)); },
           0.25f);
  run_reference(ref, 15);
  std::vector<double> want;
  ref.copy_result_to(want, 15);
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                   Scheme::PlutoLike, Scheme::Auto}) {
    for (int threads : {1, 4}) {
      expect_bit_equal(run_f32(57, 43, 15, s, threads), want, scheme_name(s));
    }
  }
}

TEST(Float32, WaveEngineBitExact) {
  // Fusion and temporal vectorization are execution-order changes only, so
  // every composition must reproduce the plain (unfused) fp32 walk bit for
  // bit — same contract as the fp64 wave tests, instantiated for the float
  // element type (VecF width 2x).
  auto make = [] {
    FloatStar2D<1> k(73, 59, weights_f32());
    k.init(
        [](int x, int y) { return static_cast<float>(cats::test::init2d(x, y)); },
        0.25f);
    return k;
  };
  const int T = 14;
  for (Scheme s : {Scheme::Cats1, Scheme::Cats2}) {
    RunOptions plain;
    plain.scheme = s;
    plain.threads = 2;
    plain.cache_bytes = 32 * 1024;
    plain.unroll_t = 1;
    auto ref = make();
    run(ref, T, plain);
    std::vector<double> want;
    ref.copy_result_to(want, T);
    for (int u : {0, 4}) {
      for (bool tv : {false, true}) {
        RunOptions opt = plain;
        opt.unroll_t = u;
        opt.temporal_vec = tv;
        auto k = make();
        run(k, T, opt);
        std::vector<double> got;
        k.copy_result_to(got, T);
        expect_bit_equal(got, want,
                         (std::string("f32 wave ") + scheme_name(s) +
                          " unroll=" + std::to_string(u) +
                          (tv ? " tv" : ""))
                             .c_str());
      }
    }
  }
}

TEST(Float32, ElementBytesTrait) {
  FloatStar2D<1> f(8, 8, weights_f32());
  EXPECT_DOUBLE_EQ(kernel_element_bytes(f), 4.0);
  ConstStar2D<1> d(8, 8, default_star2d_weights<1>());
  EXPECT_DOUBLE_EQ(kernel_element_bytes(d), 8.0);  // default trait
}

TEST(Float32, SmallerElementsDeepenTheChunk) {
  // Same domain and cache: float halves the bytes per wavefront point, so
  // Eq. 1 yields roughly twice the chunk height.
  const DomainShape d{1000 * 1000, 1000, 1000, 2};
  const std::size_t z = 1 << 20;
  const int tz_double = compute_tz(z, d, {1, 2.8, 8.0});
  const int tz_float = compute_tz(z, d, {1, 2.8, 4.0});
  EXPECT_NEAR(tz_float, 2 * tz_double, 1);
}

TEST(Float32, SmallerElementsWidenTheDiamond) {
  // Eq. 2 scales the diamond with sqrt(Zd): halving the element size doubles
  // the cache's point capacity, widening BZ by exactly sqrt(2).
  const DomainShape d{2000 * 2000, 2000, 2000, 2};
  const std::size_t z = 1 << 21;
  const double raw_d = eq2_bz_raw(z, d, {1, 2.8, 8.0});
  const double raw_f = eq2_bz_raw(z, d, {1, 2.8, 4.0});
  EXPECT_NEAR(raw_f, std::sqrt(2.0) * raw_d, 1e-9 * raw_d);
  EXPECT_GT(compute_bz(z, d, {1, 2.8, 4.0}), compute_bz(z, d, {1, 2.8, 8.0}));
}

TEST(Float32, ReducedElementSizeArmsResidencyCertification) {
  // A cache just below one minimal fp64 diamond's working set but above the
  // fp32 one: the fp64 plan hits the 2s floor (clamped -> its residency
  // certificate is void) while the fp32 plan of the same domain certifies
  // unclamped. Eq. 2 raw BZ is sqrt(2Z/(E*CS')), so
  // with s=1, CS'=2.8 the 2s floor sits at Z=44.8 bytes for E=8 and
  // Z=22.4 bytes for E=4; Z=40 lands between them.
  plan_ir::PlanRequest rq;
  rq.dims = 2;
  rq.nx = 57;
  rq.ny = 43;
  rq.T = 8;
  rq.slope = 1;
  rq.cs_eff = 2.8;
  rq.opt.scheme = Scheme::Cats2;
  rq.opt.threads = 2;
  rq.opt.cache_bytes = 40;
  rq.elem_bytes = 8.0;
  const plan_ir::TilePlan p64 = plan_ir::emit_plan(rq);
  rq.elem_bytes = 4.0;
  const plan_ir::TilePlan p32 = plan_ir::emit_plan(rq);
  EXPECT_DOUBLE_EQ(p64.elem_bytes, 8.0);
  EXPECT_DOUBLE_EQ(p32.elem_bytes, 4.0);
  EXPECT_TRUE(p64.certify_residency);
  EXPECT_TRUE(p32.certify_residency);
  EXPECT_TRUE(p64.clamped);
  EXPECT_FALSE(p32.clamped);
}

TEST(Float32, PlanUsesElementSize) {
  FloatStar2D<1> f(1000, 1000, weights_f32());
  ConstStar2D<1> dk(1000, 1000, default_star2d_weights<1>());
  RunOptions opt;
  opt.cache_bytes = 1 << 20;
  const SchemeChoice cf = plan(f, 1000, opt);
  const SchemeChoice cd = plan(dk, 1000, opt);
  ASSERT_EQ(cf.scheme, Scheme::Cats1);
  ASSERT_EQ(cd.scheme, Scheme::Cats1);
  EXPECT_NEAR(cf.tz, 2 * cd.tz, 2);
}
