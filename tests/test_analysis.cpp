// Static concurrency & footprint verifier (src/analysis): positive runs of
// both engines, plus the negative tests that prove the checkers actually
// detect what they claim to — a weakened barrier order must produce a
// counterexample trace, and a doctored kernel access must be flagged with
// its exact coordinates.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>

#include "analysis/footprint.hpp"
#include "analysis/protocols.hpp"
#include "analysis/record.hpp"
#include "analysis/weak_memory.hpp"
#include "grid/grid2d.hpp"
#include "kernels/const2d.hpp"
#include "plan/emit.hpp"

namespace {

using namespace cats;
using namespace cats::analysis;

// ---- model checker ---------------------------------------------------------

TEST(ModelCheck, AllPrimitivesVerifyAtProductionOrders) {
  for (const auto& pc : check_all_primitives()) {
    EXPECT_TRUE(pc.result.error.empty()) << pc.scenario << ": "
                                         << pc.result.error;
    EXPECT_FALSE(pc.result.has_cex())
        << pc.scenario << ": " << pc.result.cex.front().reason;
    EXPECT_GT(pc.result.executions, 0) << pc.scenario;
  }
}

TEST(ModelCheck, BarrierReleaseWeakeningYieldsCounterexample) {
  // The sense publish is the barrier's release edge; demoting it to relaxed
  // must produce a concrete interleaving whose data read races.
  const ExploreResult r =
      check_with_site_order(SiteId::kSbSensePublish, std::memory_order_relaxed);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.has_cex());
  EXPECT_NE(r.cex.front().reason.find("data race"), std::string::npos)
      << r.cex.front().reason;
  EXPECT_FALSE(r.cex.front().trace.empty());
}

TEST(ModelCheck, MinimalitySweepRefutesWeakeningsAndAuditsPinLatch) {
  bool saw_pin_audit = false;
  for (const auto& f : minimality_sweep()) {
    EXPECT_TRUE(f.error.empty()) << f.prim << "." << f.site << ": " << f.error;
    if (f.strengthening) {
      // The one historical-strength audit: pin latch at its pre-downgrade
      // acq_rel/acquire must still pass (documents the applied weakening).
      EXPECT_TRUE(f.safe) << f.prim << "." << f.site;
      if (std::strcmp(f.prim, "PinLatch") == 0) saw_pin_audit = true;
    } else {
      // Every production order is one-step minimal: each weakening refuted
      // with a counterexample.
      EXPECT_FALSE(f.safe) << f.prim << "." << f.site
                           << " weakens safely: production order over-strong";
      EXPECT_FALSE(f.cex_reason.empty()) << f.prim << "." << f.site;
    }
  }
  EXPECT_TRUE(saw_pin_audit);
}

// ---- footprint analyzer ----------------------------------------------------

TEST(Footprint, CleanKernelCertifiesOverCats1) {
  constexpr int S = 2;
  ConstStar2D<S, RecElem64> k(48, 16, default_star2d_weights<S, RecElem64>());
  const plan_ir::TilePlan p = plan_ir::emit_cats1(2, 48, 16, 1, 4, S, 2, 2);
  FootprintChecker chk(2, S);
  chk.add_state_grid_2d(k.grid_at(0), 0, "buf0");
  chk.add_state_grid_2d(k.grid_at(1), 1, "buf1");
  RunOptions opt;
  opt.threads = p.threads;
  opt.unroll_t = 0;
  opt.prefetch_dist = 0;
  RecWrap2D<ConstStar2D<S, RecElem64>> wrap(k, chk);
  drive_plan_2d(wrap, p, opt, chk);
  for (const auto& d : chk.diags()) ADD_FAILURE() << d.message;
  EXPECT_GT(chk.loads(), 0);
  EXPECT_GT(chk.stores(), 0);
}

TEST(Footprint, FullSweepCertifies) {
  for (const auto& rep : footprint_sweep()) {
    for (const auto& d : rep.diags)
      ADD_FAILURE() << rep.config << ": " << d.message;
  }
}

/// Doctored access #1: a load one row beyond the slope-S halo must be
/// flagged with its exact coordinates.
TEST(Footprint, OffByOneHaloReadFlagged) {
  constexpr int S = 2;
  Grid2D<RecElem64> src(32, 12, S);
  Grid2D<RecElem64> dst(32, 12, S);
  FootprintChecker chk(2, S);
  chk.add_state_grid_2d(src, 0, "buf0");
  chk.add_state_grid_2d(dst, 1, "buf1");
  chk.install();
  {
    const FpStage st{1, 5, 0, 0, 16};
    FpCallScope scope(chk, &st, 1);
    // Stage row y=5 at slope 2 may read rows 3..7; row 2 is one too far.
    (void)RecVec64::load(src.row(5 - S - 1) + 4);
  }
  FootprintChecker::uninstall();
  ASSERT_EQ(chk.diags().size(), 1U);
  const std::string& m = chk.diags().front().message;
  EXPECT_NE(m.find("halo violation"), std::string::npos) << m;
  EXPECT_NE(m.find("x=[4,"), std::string::npos) << m;
  EXPECT_NE(m.find("y=2"), std::string::npos) << m;
}

/// Doctored access #2: a misaligned store_aligned must be a hard alignment
/// diagnostic, again with exact coordinates.
TEST(Footprint, MisalignedAlignedStoreFlagged) {
  if constexpr (RecVec64::width > 1) {
    constexpr int S = 2;
    Grid2D<RecElem64> src(32, 12, S);
    Grid2D<RecElem64> dst(32, 12, S);
    FootprintChecker chk(2, S);
    chk.add_state_grid_2d(src, 0, "buf0");
    chk.add_state_grid_2d(dst, 1, "buf1");
    chk.install();
    {
      const FpStage st{1, 5, 0, 0, 32};
      FpCallScope scope(chk, &st, 1);
      // Geometrically legal, but one element off natural vector alignment.
      RecVec64 v{};
      v.store_aligned(dst.row(5) + 1);
    }
    FootprintChecker::uninstall();
    ASSERT_EQ(chk.diags().size(), 1U);
    const std::string& m = chk.diags().front().message;
    EXPECT_NE(m.find("misaligned aligned store"), std::string::npos) << m;
    EXPECT_NE(m.find("x=1"), std::string::npos) << m;
    EXPECT_NE(m.find("y=5"), std::string::npos) << m;
  }
}

}  // namespace
