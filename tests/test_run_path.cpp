// run() is emit_plan + run_plan: for every dimensionality x scheme at four
// threads (and the Gauss-Seidel serial transform), the tiles and barrier
// crossings run() reports in RunStats equal the counts implied by emit_plan
// of the same request, the points each worker computes match the plan's
// tile owners, verify_plan certifies that plan, and the result stays
// bit-exact against core/reference.hpp. A run path that executed any other
// plan (different owners, tiles or phases) would fail these checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/reference.hpp"
#include "core/run.hpp"
#include "core/stats.hpp"
#include "helpers.hpp"
#include "kernels/const1d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"
#include "kernels/gauss_seidel2d.hpp"
#include "plan/emit.hpp"
#include "plan/verify.hpp"

using namespace cats;
using cats::test::expect_bit_equal;

namespace {

constexpr int kThreads = 4;

struct Counts {
  std::int64_t tiles = 0;
  std::int64_t barriers = 0;
};

// What executing `p` must report: one tile per tile group (first_in_group);
// per worker, one crossing per Barrier phase and two per
// BarrierResetBarrier phase.
Counts implied_counts(const plan_ir::TilePlan& p) {
  Counts c;
  for (const plan_ir::Tile& t : p.tiles) {
    if (t.first_in_group) ++c.tiles;
  }
  const int per_phase =
      p.phase_sync == plan_ir::PhaseSync::Barrier               ? 1
      : p.phase_sync == plan_ir::PhaseSync::BarrierResetBarrier ? 2
                                                                : 0;
  c.barriers = static_cast<std::int64_t>(p.threads) * per_phase * p.phases;
  return c;
}

// Points computed per worker thread, sorted (which worker is which does not
// matter, only how the work is split).
class WorkLog {
 public:
  void add(int x0, int x1) {
    if (x1 <= x0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    points_[std::this_thread::get_id()] += x1 - x0;
  }
  std::vector<std::int64_t> per_worker() const {
    std::vector<std::int64_t> v;
    for (const auto& [id, n] : points_) v.push_back(n);
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, std::int64_t> points_;
};

// Forwards a kernel's row calls and logs which worker computed them. It
// exposes no fused or streaming row bodies, so the wave engine walks plain
// rows — bit-exact with the fused walk.
template <class K>
class Recorder {
 public:
  static constexpr bool sequential_spatial_deps = kernel_sequential_deps<K>();

  Recorder(K& k, WorkLog& log) : k_(&k), log_(&log) {}
  int width() const { return k_->width(); }
  int height() const
    requires RowKernel2D<K> || RowKernel3D<K>
  {
    return k_->height();
  }
  int depth() const
    requires RowKernel3D<K>
  {
    return k_->depth();
  }
  int slope() const { return k_->slope(); }
  double flops_per_point() const { return k_->flops_per_point(); }
  double state_doubles_per_point() const {
    return k_->state_doubles_per_point();
  }
  double extra_cache_doubles_per_point() const {
    return k_->extra_cache_doubles_per_point();
  }
  void copy_result_to(std::vector<double>& out, int T) const {
    k_->copy_result_to(out, T);
  }
  void process_row(int t, int x0, int x1)
    requires RowKernel1D<K>
  {
    log_->add(x0, x1);
    k_->process_row(t, x0, x1);
  }
  void process_row_scalar(int t, int x0, int x1)
    requires RowKernel1D<K>
  {
    log_->add(x0, x1);
    k_->process_row_scalar(t, x0, x1);
  }
  void process_row(int t, int y, int x0, int x1)
    requires RowKernel2D<K>
  {
    log_->add(x0, x1);
    k_->process_row(t, y, x0, x1);
  }
  void process_row_scalar(int t, int y, int x0, int x1)
    requires RowKernel2D<K>
  {
    log_->add(x0, x1);
    k_->process_row_scalar(t, y, x0, x1);
  }
  void process_row(int t, int y, int z, int x0, int x1)
    requires RowKernel3D<K>
  {
    log_->add(x0, x1);
    k_->process_row(t, y, z, x0, x1);
  }
  void process_row_scalar(int t, int y, int z, int x0, int x1)
    requires RowKernel3D<K>
  {
    log_->add(x0, x1);
    k_->process_row_scalar(t, y, z, x0, x1);
  }

 private:
  K* k_;
  WorkLog* log_;
};

// Points each plan owner computes, sorted, owners without work dropped.
std::vector<std::int64_t> per_owner(const plan_ir::TilePlan& p) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(p.threads), 0);
  for (const plan_ir::Tile& t : p.tiles) {
    plan_ir::for_each_slab(p, t, [&](const plan_ir::Slab& sl) {
      v[static_cast<std::size_t>(t.owner)] += sl.box.cells();
    });
  }
  v.erase(std::remove(v.begin(), v.end(), 0), v.end());
  std::sort(v.begin(), v.end());
  return v;
}

// The request built by hand from the kernel's public accessors, the way an
// external certifier (cats_plan_check, the benchmark) builds it.
template <class K>
plan_ir::PlanRequest request_for(const K& k, int T, const RunOptions& opt) {
  plan_ir::PlanRequest rq;
  rq.dims = 1;
  rq.nx = k.width();
  if constexpr (RowKernel2D<K> || RowKernel3D<K>) {
    rq.dims = 2;
    rq.ny = k.height();
  }
  if constexpr (RowKernel3D<K>) {
    rq.dims = 3;
    rq.nz = k.depth();
  }
  rq.T = T;
  rq.slope = k.slope();
  rq.cs_eff = effective_cs(k, opt.cs_slack);
  rq.elem_bytes = kernel_element_bytes(k);
  rq.opt = opt;
  return rq;
}

// `plan_opt` is what emit_plan sees; `run_opt` what run() is called with
// (they differ only for the Gauss-Seidel transform).
template <class MakeKernel>
void check_run_path(MakeKernel&& make, int T, const RunOptions& run_opt,
                    const RunOptions& plan_opt, const std::string& label) {
  auto ref = make();
  run_reference(ref, T);
  std::vector<double> want;
  ref.copy_result_to(want, T);

  auto k = make();
  const plan_ir::TilePlan p = plan_ir::emit_plan(request_for(k, T, plan_opt));
  const plan_ir::VerifyReport rep = plan_ir::verify_plan(p);
  EXPECT_TRUE(rep.ok()) << label << ": " << rep.summary();
  EXPECT_GT(p.tiles.size(), 1u) << label;

  RunStats st;
  RunOptions opt = run_opt;
  opt.stats = &st;
  WorkLog log;
  Recorder<decltype(k)> rec(k, log);
  run(rec, T, opt);
  const Counts c = implied_counts(p);
  EXPECT_EQ(st.tiles_processed.load(), c.tiles) << label;
  EXPECT_EQ(st.barriers.load(), c.barriers) << label;

  EXPECT_EQ(log.per_worker(), per_owner(p)) << label;

  std::vector<double> got;
  k.copy_result_to(got, T);
  expect_bit_equal(got, want, label.c_str());
}

RunOptions options(Scheme s, std::size_t cache_bytes) {
  RunOptions opt;
  opt.scheme = s;
  opt.threads = kThreads;
  opt.cache_bytes = cache_bytes;
  return opt;
}

constexpr Scheme kSchemes[] = {Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                               Scheme::Cats3, Scheme::PlutoLike};

}  // namespace

TEST(RunPath, OneDimensionalPlansMatchExecution) {
  typename ConstStar1D<1>::Weights w;
  w.center = 0.5;
  w.xm[0] = 0.2525;
  w.xp[0] = 0.2475;
  auto make = [&] {
    ConstStar1D<1> k(2000, w);
    k.init([](int x) { return cats::test::init2d(x, 3); }, 0.5);
    return k;
  };
  for (Scheme s : kSchemes) {
    const RunOptions opt = options(s, 2 * 1024);
    check_run_path(make, 30, opt, opt, std::string("1d ") + scheme_name(s));
  }
}

TEST(RunPath, TwoDimensionalPlansMatchExecution) {
  auto make = [] {
    ConstStar2D<1> k(64, 48, default_star2d_weights<1>());
    k.init(cats::test::init2d, 0.5);
    return k;
  };
  for (Scheme s : kSchemes) {
    const RunOptions opt = options(s, 16 * 1024);
    check_run_path(make, 20, opt, opt, std::string("2d ") + scheme_name(s));
  }
}

TEST(RunPath, ThreeDimensionalPlansMatchExecution) {
  auto make = [] {
    ConstStar3D<1> k(24, 20, 18, default_star3d_weights<1>());
    k.init(cats::test::init3d, -0.1);
    return k;
  };
  for (Scheme s : kSchemes) {
    const RunOptions opt = options(s, 16 * 1024);
    check_run_path(make, 12, opt, opt, std::string("3d ") + scheme_name(s));
  }
}

TEST(RunPath, GaussSeidelRunsTheSerialCats1Plan) {
  GaussSeidel2D::Weights w;
  w.relax = 1.3;
  w.xm = 0.26;
  w.xp = 0.24;
  w.ym = 0.27;
  w.yp = 0.23;
  auto make = [&] {
    GaussSeidel2D k(61, 47, w);
    k.init(cats::test::init2d, 0.5);
    return k;
  };
  // The transform: one thread, and CATS1 unless the naive sweep was asked
  // for — whatever scheme and thread count the caller passed.
  for (Scheme s : {Scheme::Auto, Scheme::Cats2, Scheme::Naive}) {
    const RunOptions opt = options(s, 16 * 1024);
    RunOptions serial = opt;
    serial.threads = 1;
    if (s != Scheme::Naive) serial.scheme = Scheme::Cats1;
    check_run_path(make, 17, opt, serial,
                   std::string("gauss_seidel2d ") + scheme_name(s));
  }
}
