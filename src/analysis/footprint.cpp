// Symbolic footprint analyzer: the CI sweep matrix (DESIGN.md §15).
//
// Each config instantiates a production kernel family on a recording
// element type, emits the production plan for a small domain, and drives
// the production wave walker over it. The checker certifies every recorded
// address; on top, each run asserts it *exercised* what it claims to cover
// (fused and TV groups formed when enabled) — a vacuous certification is
// reported as a failure, not a pass.

#include "analysis/footprint.hpp"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/banded2d.hpp"
#include "kernels/banded3d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"
#include "plan/emit.hpp"

namespace cats {
namespace analysis {

// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
thread_local constinit AccessHook g_access_hook;

namespace {

struct Cfg {
  int u;
  bool tv;
};

/// Full option cross for the CATS schemes. Naive plans never chain, so they
/// get two configs: the plain baseline and an everything-on run that must
/// degrade to the plain paths.
std::vector<Cfg> cats_cfgs() {
  std::vector<Cfg> v;
  for (int u = 0; u <= 4; ++u)
    for (int tv = 0; tv < 2; ++tv) v.push_back({u, tv != 0});
  return v;
}
std::vector<Cfg> naive_cfgs() { return {{0, false}, {4, true}}; }

RunOptions make_opt(const plan_ir::TilePlan& p, const Cfg& c) {
  RunOptions o;
  o.threads = p.threads;
  o.unroll_t = c.u;
  o.temporal_vec = c.tv;
  o.prefetch_dist = 0;
  return o;
}

/// The production plan (plan_ir::emit_plan, the plan run() walks) for
/// `scheme` forced with explicit tile parameters on `threads` workers.
plan_ir::TilePlan forced_plan(int dims, int nx, int ny, int nz, int T, int S,
                              int threads, Scheme scheme, int tz = 0,
                              int bz = 0, int bx = 0) {
  plan_ir::PlanRequest rq;
  rq.dims = dims;
  rq.nx = nx;
  rq.ny = ny;
  rq.nz = nz;
  rq.T = T;
  rq.slope = S;
  rq.opt.scheme = scheme;
  rq.opt.threads = threads;
  rq.opt.tz_override = tz;
  rq.opt.bz_override = bz;
  rq.opt.bx_override = bx;
  return plan_ir::emit_plan(rq);
}

std::string cfg_label(const char* family, const char* prec, const char* sch,
                      const Cfg& c) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s %s %s u=%d tv=%d", family, prec, sch,
                c.u, c.tv ? 1 : 0);
  return buf;
}

struct SchemeCase {
  const char* name;
  plan_ir::TilePlan plan;
  bool cats;  ///< wavefront scheme (its slabs chain)
};

void finish(FpReport& rep, const FootprintChecker& chk) {
  for (const auto& d : chk.diags()) rep.diags.push_back(d);
  rep.loads = chk.loads();
  rep.stores = chk.stores();
}

// ---- 2D families -----------------------------------------------------------

template <class T>
void sweep_const2d(const char* prec, std::vector<FpReport>& out) {
  constexpr int S = 2;
  const int nx = 64, ny = 20, nt_steps = 6, threads = 2;
  std::vector<SchemeCase> cases;
  cases.push_back(
      {"naive", forced_plan(2, nx, ny, 1, nt_steps, S, threads, Scheme::Naive),
       false});
  cases.push_back({"cats1",
                   forced_plan(2, nx, ny, 1, nt_steps, S, threads,
                               Scheme::Cats1, /*tz=*/3),
                   true});
  // bz must exceed the widest vector (16 fp32 lanes on AVX-512) or diamond
  // slabs stay scalar-only and the TV exercise checks turn vacuous.
  cases.push_back({"cats2",
                   forced_plan(2, nx, ny, 1, nt_steps, S, threads,
                               Scheme::Cats2, 0, /*bz=*/24),
                   true});
  for (const auto& sc : cases) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      ConstStar2D<S, T> k(nx, ny, default_star2d_weights<S, T>());
      FootprintChecker chk(2, S);
      chk.add_state_grid_2d(k.grid_at(0), 0, "const2d/buf0");
      chk.add_state_grid_2d(k.grid_at(1), 1, "const2d/buf1");
      RecWrap2D<ConstStar2D<S, T>> wrap(k, chk);
      drive_plan_2d(wrap, sc.plan, make_opt(sc.plan, c), chk);
      FpReport rep;
      rep.config = cfg_label("const2d/s2", prec, sc.name, c);
      finish(rep, chk);
      // CATS1 columns produce single-row chain links; with fusion enabled
      // the TV (or plain fused) body must actually run.
      if (std::strcmp(sc.name, "cats1") == 0 && c.u != 1) {
        if (c.tv && wrap.tv_calls == 0) {
          rep.diags.push_back(
              {"exercise: temporal_vec enabled but no TV group ran"});
        }
        if (!c.tv && wrap.stages_calls == 0) {
          rep.diags.push_back(
              {"exercise: fusion enabled but no fused group ran"});
        }
      }
      out.push_back(std::move(rep));
    }
  }
}

void sweep_banded2d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  const int nx = 64, ny = 20, nt_steps = 6, threads = 2;
  using K = Banded2D<S, RecElem64>;
  std::vector<SchemeCase> cases;
  cases.push_back(
      {"naive", forced_plan(2, nx, ny, 1, nt_steps, S, threads, Scheme::Naive),
       false});
  cases.push_back({"cats1",
                   forced_plan(2, nx, ny, 1, nt_steps, S, threads,
                               Scheme::Cats1, /*tz=*/3),
                   true});
  cases.push_back({"cats2",
                   forced_plan(2, nx, ny, 1, nt_steps, S, threads,
                               Scheme::Cats2, 0, /*bz=*/24),
                   true});
  for (const auto& sc : cases) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      K k(nx, ny);
      FootprintChecker chk(2, S);
      chk.add_state_grid_2d(k.grid_at(0), 0, "banded2d/buf0");
      chk.add_state_grid_2d(k.grid_at(1), 1, "banded2d/buf1");
      for (int b = 0; b < K::kBands; ++b) {
        chk.add_band_grid_2d(k.band(b), b, "banded2d");
      }
      RecWrap2D<K> wrap(k, chk);
      drive_plan_2d(wrap, sc.plan, make_opt(sc.plan, c), chk);
      FpReport rep;
      rep.config = cfg_label("banded2d/s1", "fp64", sc.name, c);
      finish(rep, chk);
      if (std::strcmp(sc.name, "cats1") == 0 && c.u != 1 && c.tv &&
          wrap.tv_calls == 0) {
        rep.diags.push_back(
            {"exercise: temporal_vec enabled but no TV group ran"});
      }
      out.push_back(std::move(rep));
    }
  }
}

// ---- 3D families -----------------------------------------------------------

std::vector<SchemeCase> cases_3d(int nx, int ny, int nz, int nt_steps, int S,
                                 int threads) {
  std::vector<SchemeCase> cases;
  cases.push_back(
      {"naive",
       forced_plan(3, nx, ny, nz, nt_steps, S, threads, Scheme::Naive),
       false});
  cases.push_back({"cats1",
                   forced_plan(3, nx, ny, nz, nt_steps, S, threads,
                               Scheme::Cats1, /*tz=*/2),
                   true});
  cases.push_back({"cats2",
                   forced_plan(3, nx, ny, nz, nt_steps, S, threads,
                               Scheme::Cats2, 0, /*bz=*/4),
                   true});
  cases.push_back({"cats3",
                   forced_plan(3, nx, ny, nz, nt_steps, S, threads,
                               Scheme::Cats3, 0, /*bz=*/4, /*bx=*/8),
                   true});
  return cases;
}

template <class K>
void drive_3d_case(K& k, const SchemeCase& sc, const Cfg& c,
                   FootprintChecker& chk, FpReport& rep) {
  RecWrap3D<K> wrap(k, chk);
  drive_plan_3d(wrap, sc.plan, make_opt(sc.plan, c), chk);
  finish(rep, chk);
  // CATS1 3D tiles chain single-z slabs; with fusion + TV on, the TV row
  // body must actually run.
  if (std::strcmp(sc.name, "cats1") == 0 && c.u != 1 && c.tv &&
      wrap.tv_rows == 0) {
    rep.diags.push_back(
        {"exercise: temporal_vec enabled but no TV row ran"});
  }
}

void sweep_const3d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  const int nx = 24, ny = 12, nz = 12, nt_steps = 4, threads = 2;
  using K = ConstStar3D<S, RecElem64>;
  for (const auto& sc : cases_3d(nx, ny, nz, nt_steps, S, threads)) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      K k(nx, ny, nz, default_star3d_weights<S, RecElem64>());
      FootprintChecker chk(3, S);
      chk.add_state_grid_3d(k.grid_at(0), 0, "const3d/buf0");
      chk.add_state_grid_3d(k.grid_at(1), 1, "const3d/buf1");
      FpReport rep;
      rep.config = cfg_label("const3d/s1", "fp64", sc.name, c);
      drive_3d_case(k, sc, c, chk, rep);
      out.push_back(std::move(rep));
    }
  }
}

void sweep_banded3d(std::vector<FpReport>& out) {
  constexpr int S = 1;
  const int nx = 24, ny = 12, nz = 12, nt_steps = 4, threads = 2;
  using K = Banded3D<S, RecElem64>;
  for (const auto& sc : cases_3d(nx, ny, nz, nt_steps, S, threads)) {
    for (const Cfg& c : sc.cats ? cats_cfgs() : naive_cfgs()) {
      K k(nx, ny, nz);
      FootprintChecker chk(3, S);
      chk.add_state_grid_3d(k.grid_at(0), 0, "banded3d/buf0");
      chk.add_state_grid_3d(k.grid_at(1), 1, "banded3d/buf1");
      for (int b = 0; b < K::kBands; ++b) {
        chk.add_band_grid_3d(k.band(b), b, "banded3d");
      }
      FpReport rep;
      rep.config = cfg_label("banded3d/s1", "fp64", sc.name, c);
      drive_3d_case(k, sc, c, chk, rep);
      out.push_back(std::move(rep));
    }
  }
}

}  // namespace

std::vector<FpReport> footprint_sweep() {
  std::vector<FpReport> out;
  sweep_const2d<RecElem64>("fp64", out);
  sweep_const2d<RecElem32>("fp32", out);
  sweep_banded2d(out);
  sweep_const3d(out);
  sweep_banded3d(out);
  return out;
}

}  // namespace analysis
}  // namespace cats
