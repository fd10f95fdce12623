// Repository benchmark program (run through run.py; see BENCHMARK.json).
//
//   perfbench --workload dram2d|dram3d|serve_mix --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// Workloads (the seed fixes every input):
//   dram2d     const2d fp64 7680^2 (450 MiB per grid), T=100, 4 threads,
//              Scheme::Auto — the paper's Fig. 5/6 regime (CATS1).
//   dram3d     const3d fp64 384^3 (432 MiB per grid), T=100, 4 threads,
//              Scheme::Auto — the paper's Fig. 7/8 regime (CATS2).
//   serve_mix  an in-process serve::Server driven closed loop by two
//              serve::Client tenants with seeded jobs from a fixed menu of
//              L2/L3-resident shapes; the untraced run makes ten passes,
//              each in a forked process of its own.
//
// Every output is checked: each timed run's final grid (copy_result_to) is
// compared with a Scheme::Naive run of the same problem — by serve::fnv1a for
// the first, by a word-wise hash (fold_hash) for later ones — a reduced-size
// problem is compared bitwise against core/reference.hpp, and every served
// job's checksum is compared against serve::execute_job with Scheme::Naive.
// Mismatches count as failed; the exit code is 1 when any check failed.
//
// peak_rss_mib is the process's resident high-water mark (VmHWM, the figure
// getrusage reports as ru_maxrss) over the program's own work: it is reset
// after the benchmark's naive references and sampled before each result copy,
// so the benchmark's full-size check buffers do not count.
//
// --trace 0 reports the end-to-end metrics; --trace 1 wraps every call into
// a library module in a span (trace.hpp), reports the per-layer metrics,
// per-layer self time and the tracing overhead, and writes the spans to
// DIR/trace-<workload>-<seed>.json. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_harness/machine.hpp"
#include "bench_harness/timing.hpp"
#include "core/perf_model.hpp"
#include "core/reference.hpp"
#include "core/run.hpp"
#include "core/stats.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"
#include "metrics.hpp"
#include "plan/emit.hpp"
#include "plan/verify.hpp"
#include "serve/client.hpp"
#include "serve/exec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sysinfo/cache_info.hpp"
#include "trace.hpp"

namespace {

using cats::bench::Timer;
using perfbench::ScopedSpan;
using perfbench::Tally;
using perfbench::Tracer;

using K2 = cats::ConstStar2D<1>;
using K3 = cats::ConstStar3D<1>;

constexpr int kThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

/// A stencil problem: kernel family, extents (nz == 0 for 2D) and T.
struct Shape {
  std::string kernel;
  int nx = 0, ny = 0, nz = 0;
  int T = 0;
  std::int64_t points() const {
    return std::int64_t{nx} * ny * (nz > 0 ? nz : 1);
  }
  double updates() const { return static_cast<double>(points()) * T; }
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("%-32s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  /// A timing line: median, the supported tail percentile and the count
  /// (and, for a handful of samples, the samples themselves).
  static void timing(const char* what, const std::vector<double>& v,
                     double scale, const char* unit) {
    const perfbench::Timing t = perfbench::summarize(v);
    if (v.size() <= 24) {
      std::printf("# %s samples (%s):", what, unit);
      for (const double x : v) std::printf(" %.4g", x * scale);
      std::printf("\n");
    }
    if (t.tail_p > 0.0) {
      std::printf("# %s: median %.4g %s, p%g %.4g %s, n=%zu\n", what,
                  t.median * scale, unit, t.tail_p, t.tail * scale, unit, t.n);
    } else {
      std::printf("# %s: median %.4g %s, n=%zu (too few samples for a tail "
                  "percentile)\n",
                  what, t.median * scale, unit, t.n);
    }
  }
  void print_json(const Tally& tally) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident memory of the measured phases. The kernel keeps one
/// high-water mark per process; reset() sets it back to the current resident
/// size (writing 5 to /proc/self/clear_refs), sample() folds it into peak.
class PeakRss {
 public:
  void reset() {
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    bool ok = f != nullptr && std::fputs("5", f) >= 0;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok) reset_ok_ = false;
  }
  void sample() { peak_mib_ = std::max(peak_mib_, hwm_mib()); }
  double mib() const { return peak_mib_; }
  /// False when a reset failed: the peak may then include check buffers.
  bool resets_worked() const { return reset_ok_; }

 private:
  static double hwm_mib() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    }
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0)
        kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kib / 1024.0;
  }
  double peak_mib_ = 0.0;
  bool reset_ok_ = true;
};

void report_peak_rss(const PeakRss& rss, Report& rep) {
  if (!rss.resets_worked())
    std::fprintf(stderr, "perfbench: cannot reset the resident high-water "
                         "mark; peak_rss_mib includes check buffers\n");
  rep.add("peak_rss_mib", rss.mib(), "MiB");
}

// ---------------------------------------------------------------------------
// Kernels, built and seeded exactly like serve::execute_job

template <class K>
std::unique_ptr<K> make_kernel(const Shape& s) {
  if constexpr (cats::RowKernel3D<K>) {
    return std::make_unique<K>(s.nx, s.ny, s.nz,
                               cats::default_star3d_weights<1>());
  } else {
    return std::make_unique<K>(s.nx, s.ny, cats::default_star2d_weights<1>());
  }
}

template <class K>
void seed_grid(K& k, const cats::RunOptions& opt, std::uint64_t seed) {
  if constexpr (cats::RowKernel3D<K>) {
    k.parallel_init(opt, [seed](int x, int y, int z) {
      return cats::serve::init_value(seed, x, y, z);
    });
  } else {
    k.parallel_init(opt, [seed](int x, int y) {
      return cats::serve::init_value(seed, x, y, 0);
    });
  }
}

int dims_of(const Shape& s) { return s.nz > 0 ? 3 : 2; }

cats::RunOptions base_options() {
  cats::RunOptions opt;
  opt.threads = kThreads;
  opt.scheme = cats::Scheme::Auto;
  return opt;
}

/// FNV-1a-style hash over whole 64-bit words in four independent lanes: the
/// per-repetition check, at memory speed where serve::fnv1a's byte-serial
/// chain takes about half a second per DRAM-sized grid.
std::uint64_t fold_hash(const std::vector<double>& v) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h[4] = {1469598103934665603ULL, 1, 2, 3};
  const std::size_t n = v.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v[i + static_cast<std::size_t>(l)], sizeof bits);
      h[l] = (h[l] ^ bits) * kPrime;
    }
  }
  for (; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v[i], sizeof bits);
    h[0] = (h[0] ^ bits) * kPrime;
  }
  return ((h[0] * kPrime ^ h[1]) * kPrime ^ h[2]) * kPrime ^ h[3];
}

/// Hashes of a Scheme::Naive result: serve::fnv1a and fold_hash.
struct RefHash {
  std::uint64_t fnv = 0;
  std::uint64_t fold = 0;
};

/// Hashes of a Scheme::Naive run of `shape` (the full-size reference).
template <class K>
RefHash naive_reference_hash(const Shape& shape, std::uint64_t seed) {
  cats::RunOptions opt = base_options();
  opt.scheme = cats::Scheme::Naive;
  auto k = make_kernel<K>(shape);
  seed_grid(*k, opt, seed);
  {
    ScopedSpan sp("naive.run_reference");
    cats::run(*k, shape.T, opt);
  }
  std::vector<double> out;
  {
    ScopedSpan sp("kernels.copy_result_to");
    k->copy_result_to(out, shape.T);
  }
  RefHash h;
  h.fold = fold_hash(out);
  ScopedSpan sp("serve.fnv1a");
  h.fnv = cats::serve::fnv1a(out);
  return h;
}

/// Reduced-size check against core/reference.hpp: the scheme the full
/// problem runs (forced, with its TZ/BZ) and Scheme::Auto must both match
/// the serial reference bit for bit.
template <class K>
void check_against_reference(const Shape& small, std::uint64_t seed,
                             const cats::SchemeChoice& full_choice,
                             Tally& tally) {
  auto ref = make_kernel<K>(small);
  seed_grid(*ref, cats::RunOptions{}, seed);
  cats::run_reference(*ref, small.T);
  std::vector<double> want;
  ref->copy_result_to(want, small.T);

  cats::RunOptions forced = base_options();
  forced.scheme = full_choice.scheme;
  forced.tz_override = full_choice.tz;
  forced.bz_override = static_cast<int>(full_choice.bz);
  for (const cats::RunOptions& opt : {forced, base_options()}) {
    auto k = make_kernel<K>(small);
    seed_grid(*k, opt, seed);
    cats::run(*k, small.T, opt);
    std::vector<double> got;
    k->copy_result_to(got, small.T);
    const bool ok =
        got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0;
    if (!ok) {
      std::printf("# MISMATCH: %s at reduced size differs from "
                  "core/reference.hpp\n",
                  cats::scheme_name(opt.scheme));
    }
    tally.record(ok);
  }
}

// ---------------------------------------------------------------------------
// Machine bounds, measured in the same run as the per-layer figures

struct Machine {
  double stream_gbps = 0.0;   ///< copy bandwidth, 4 threads, >= 4x L3
  double l2_gbps = 0.0;       ///< single-thread copy within L2
  double stencil_gflops = 0;  ///< single-thread register-resident stencil
};

Machine measure_machine(Report& rep) {
  const cats::CacheInfo ci = cats::detect_cache_info();
  Machine m;
  {
    ScopedSpan sp("bench_harness.stream");
    // Each thread copies over its own L3-sized working set, so the four
    // together stream at least four times the shared L3.
    const std::size_t ws = std::max(ci.l3_bytes, ci.l2_bytes) + (8u << 20);
    std::vector<double> gbps(kThreads, 0.0);
    std::vector<std::thread> th;
    for (int i = 0; i < kThreads; ++i)
      th.emplace_back([&gbps, i, ws] {
        gbps[static_cast<std::size_t>(i)] =
            cats::bench::measure_copy_bandwidth(ws, 0.4);
      });
    for (auto& t : th) t.join();
    for (const double g : gbps) m.stream_gbps += g;
    std::printf("# stream: %d threads x %.0f MiB working set (L3 %.0f MiB)\n",
                kThreads, ws / 1048576.0, ci.l3_bytes / 1048576.0);
  }
  {
    ScopedSpan sp("bench_harness.l2");
    m.l2_gbps = cats::bench::measure_copy_bandwidth(ci.l2_bytes / 2, 0.3);
  }
  {
    ScopedSpan sp("bench_harness.stencil_peak");
    m.stencil_gflops = cats::bench::measure_stencil_dp(0.3);
  }
  rep.add("bench_harness.stream_gbps", m.stream_gbps, "GB/s");
  rep.add("bench_harness.l2_gbps", m.l2_gbps, "GB/s");
  rep.add("bench_harness.stencil_gflops", m.stencil_gflops, "GFLOP/s");
  return m;
}

// ---------------------------------------------------------------------------
// The timed loop over whole run() calls

struct LoopResult {
  std::vector<double> untraced_s;  ///< run() seconds with spans off
  std::vector<double> traced_s;    ///< run() seconds with spans + RunStats
  std::int64_t wait_ns = 0, team_wait_ns = 0, wait_events = 0, barriers = 0,
               tiles = 0;
};

/// DRAM throughput is reported at the lower quartile of the run() times, the
/// fast quartile of its samples. Other tenants of a shared host only ever
/// slow work down, in episodes of seconds that cover a varying share of a run. On a shared
/// 4-vCPU Sapphire Rapids guest the median of dram2d's repetitions moved by
/// up to 32% (IQR over median, 10 runs) between runs of the same code, the
/// lower quartile by 14%.
double typical_run_s(const std::vector<double>& samples) {
  return perfbench::percentile(samples, 25.0);
}

/// One checked warm-up run(), then {re-seed, timed run(), check the result}
/// until `seconds` elapsed (at least `min_reps`). While the tracer is on,
/// every second repetition runs traced (spans on, RunStats attached) so
/// traced and untraced throughput come from interleaved samples of one run.
/// `rss` is sampled after each run(), before the result copy exists, and
/// reset once the copy is freed.
template <class K>
LoopResult timed_loop(K& k, const Shape& shape, std::uint64_t seed,
                      const RefHash& ref, double seconds, int min_reps,
                      Tally& tally, PeakRss& rss) {
  Tracer& tr = Tracer::get();
  const bool tracing = tr.enabled();
  LoopResult res;
  Timer loop;
  // rep 0 warms up: freshly first-touched grids run measurably slower once.
  for (int rep = 0; rep <= min_reps || loop.seconds() < seconds; ++rep) {
    if (rep == 1) loop.reset();
    const bool traced = tracing && rep % 2 == 1;
    tr.set_enabled(traced);
    cats::RunOptions opt = base_options();
    cats::RunStats stats;
    if (traced) opt.stats = &stats;
    if (rep > 0) {
      ScopedSpan sp("grid.reinit");
      seed_grid(k, opt, seed);
    }
    double s = 0.0;
    {
      ScopedSpan sp("core.run");
      Timer t;
      cats::run(k, shape.T, opt);
      s = t.seconds();
    }
    rss.sample();
    if (rep > 0) (traced ? res.traced_s : res.untraced_s).push_back(s);
    bool ok = false;
    {
      std::vector<double> got;
      {
        ScopedSpan sp("kernels.copy_result_to");
        k.copy_result_to(got, shape.T);
      }
      ok = fold_hash(got) == ref.fold;
      if (rep == 0) {
        ScopedSpan sp("serve.fnv1a");
        ok = ok && cats::serve::fnv1a(got) == ref.fnv;
      }
    }
    rss.reset();
    if (!ok) std::printf("# MISMATCH: repetition %d result\n", rep);
    tally.record(ok);
    if (traced) {
      // order: relaxed — read after run() joined its workers.
      res.wait_ns += stats.wait_ns.load(std::memory_order_relaxed);
      res.team_wait_ns += stats.team_wait_ns.load(std::memory_order_relaxed);
      res.wait_events += stats.wait_events.load(std::memory_order_relaxed);
      res.barriers += stats.barriers.load(std::memory_order_relaxed);
      res.tiles += stats.tiles_processed.load(std::memory_order_relaxed);
    }
  }
  tr.set_enabled(tracing);
  return res;
}

// ---------------------------------------------------------------------------
// Per-layer figures of one problem (traced run only)

/// process_row throughput on an L1-resident block of kernel K.
template <class K>
double kernels_l1_glups(const Shape& l1, std::uint64_t seed) {
  auto k = make_kernel<K>(l1);
  double busy = 0.0;
  std::int64_t updates = 0;
  ScopedSpan sp("kernels.process_row");
  while (busy < 0.25) {
    // Re-seed every few sweeps: the zero boundary drains a block this small
    // towards denormals, which would time the FPU's slow path instead.
    seed_grid(*k, cats::RunOptions{}, seed);
    Timer t;
    for (int step = 1; step <= 32; ++step) {
      if constexpr (cats::RowKernel3D<K>) {
        for (int z = 0; z < l1.nz; ++z)
          for (int y = 0; y < l1.ny; ++y) k->process_row(step, y, z, 0, l1.nx);
      } else {
        for (int y = 0; y < l1.ny; ++y) k->process_row(step, y, 0, l1.nx);
      }
    }
    busy += t.seconds();
    updates += 32 * l1.points();
  }
  return static_cast<double>(updates) / busy / 1e9;
}

template <class K>
void layer_metrics(K& k, const Shape& shape, const Shape& l1,
                   std::uint64_t seed, const RefHash& ref,
                   const LoopResult& loop, const Machine& m, Report& rep,
                   Tally& tally) {
  const double n = static_cast<double>(shape.points());
  const int dims = dims_of(shape);
  const cats::RunOptions opt = base_options();

  // core: selection cost and the chosen tile parameters.
  cats::SchemeChoice choice;
  for (int i = 0; i < 64; ++i) {
    ScopedSpan sp("core.plan");
    choice = cats::plan(k, shape.T, opt);
  }
  const cats::SchemeChoice exec = cats::resolve_dispatch(choice, dims);

  // plan: emission and static verification of the schedule that runs.
  cats::plan_ir::PlanRequest prq;
  prq.dims = dims;
  prq.nx = shape.nx;
  prq.ny = shape.ny;
  prq.nz = dims == 3 ? shape.nz : 1;
  prq.T = shape.T;
  prq.slope = k.slope();
  prq.cs_eff = cats::effective_cs(k, opt.cs_slack);
  prq.elem_bytes = cats::kernel_element_bytes(k);
  prq.opt = opt;
  cats::plan_ir::TilePlan tplan;
  {
    ScopedSpan sp("plan.emit_plan");
    tplan = cats::plan_ir::emit_plan(prq);
  }
  cats::plan_ir::VerifyReport vr;
  {
    ScopedSpan sp("plan.verify_plan");
    vr = cats::plan_ir::verify_plan(tplan);
  }
  if (!vr.ok()) std::printf("# plan verifier: %s\n", vr.summary().c_str());
  tally.record(vr.ok());

  // wave: the same problem on one thread (and its result checked too).
  double t1_s = 0.0;
  {
    cats::RunOptions o1 = opt;
    o1.threads = 1;
    seed_grid(k, opt, seed);
    ScopedSpan sp("core.run_t1");
    Timer t;
    cats::run(k, shape.T, o1);
    t1_s = t.seconds();
  }
  {
    std::vector<double> out;
    k.copy_result_to(out, shape.T);
    const bool ok = cats::serve::fnv1a(out) == ref.fnv;
    if (!ok) std::printf("# MISMATCH: 1-thread run checksum\n");
    tally.record(ok);
  }
  // naive: the plain sweep at 1 and 4 threads; T is short because naive
  // throughput does not depend on T.
  const int t_naive = std::max(2, shape.T / 10);
  double naive_s[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    cats::RunOptions on = opt;
    on.scheme = cats::Scheme::Naive;
    on.threads = i == 0 ? 1 : kThreads;
    seed_grid(k, opt, seed);
    ScopedSpan sp(i == 0 ? "naive.run_t1" : "naive.run_t4");
    Timer t;
    cats::run(k, t_naive, on);
    naive_s[i] = t.seconds();
  }

  const double l1g = kernels_l1_glups<K>(l1, seed);
  const double run_s = typical_run_s(loop.untraced_s);
  const double glups = shape.updates() / run_s / 1e9;
  const double t1_glups = shape.updates() / t1_s / 1e9;

  cats::TrafficInput tin;
  tin.n = n;
  tin.t_steps = shape.T;
  tin.slope = k.slope();
  const double cache_bytes = cats::kernel_cache_bytes(tin);
  const double model_bytes = cats::serve::model_bytes_for(
      exec, shape.points(), dims == 3 ? shape.nz : shape.ny, shape.T,
      opt.threads, opt.nt_stores, cats::kernel_element_bytes(k));
  // Per-core resources scale with the worker count; DRAM bandwidth is the
  // measured 4-thread aggregate.
  cats::bench::MachineProfile prof;
  prof.sys_bw_gbps = m.stream_gbps;
  prof.l2_bw_gbps = m.l2_gbps * opt.threads;
  prof.stencil_dp_gflops = m.stencil_gflops * opt.threads;
  const cats::PerfPrediction pred = cats::predict_runtime(
      prof, model_bytes, cache_bytes, shape.updates() * k.flops_per_point());

  const std::vector<perfbench::Span> spans = Tracer::get().spans();
  const double traced_reps = std::max<double>(1.0, loop.traced_s.size());
  double traced_wall = 0.0;
  for (const double s : loop.traced_s) traced_wall += s;
  const double thread_ns = std::max(1.0, traced_wall * 1e9 * opt.threads);

  std::printf("# problem: %s %dx%dx%d T=%d, scheme %s tz=%d bz=%lld\n",
              shape.kernel.c_str(), shape.nx, shape.ny, std::max(shape.nz, 1),
              shape.T, cats::scheme_name(exec.scheme), exec.tz,
              static_cast<long long>(exec.bz));
  rep.add("grid.init_s",
          perfbench::median(perfbench::span_seconds(spans, "grid.parallel_init")),
          "s");
  rep.add("kernels.l1_glups", l1g, "GLUP/s");
  rep.add("kernels.peak_frac", l1g * k.flops_per_point() / m.stencil_gflops,
          "frac");
  rep.add("wave.t1_glups", t1_glups, "GLUP/s");
  rep.add("wave.l2_bw_frac", cache_bytes / t1_s / (m.l2_gbps * 1e9), "frac");
  rep.add("threads.wait_share", loop.wait_ns / thread_ns, "frac");
  rep.add("threads.team_wait_share", loop.team_wait_ns / thread_ns, "frac");
  rep.add("threads.wait_events", loop.wait_events / traced_reps, "count");
  rep.add("threads.barriers", loop.barriers / traced_reps, "count");
  rep.add("threads.tiles", loop.tiles / traced_reps, "count");
  rep.add("threads.scaling", glups / t1_glups, "x");
  rep.add("core.plan_us",
          perfbench::median(perfbench::span_seconds(spans, "core.plan")) * 1e6,
          "us");
  rep.add("core.tz", exec.tz, "steps");
  rep.add("core.bz", static_cast<double>(exec.bz), "cells");
  // The traffic figure is the analytic model of cachesim/traffic_model.hpp,
  // not a measurement (no hardware counters): its unit says so, and the
  // bandwidth it implies is set against the measured STREAM figure.
  rep.add("core.model_bytes_per_update", model_bytes / shape.updates(),
          "model-B/upd");
  rep.add("core.model_bw_frac",
          model_bytes / run_s / (m.stream_gbps * 1e9), "model-frac");
  rep.add("core.roofline_frac", pred.seconds() / run_s, "frac");
  std::printf("# roofline: model bound %s, predicted %.4g s, measured %.4g s\n",
              pred.bound(), pred.seconds(), run_s);
  rep.add("plan.emit_us",
          perfbench::median(perfbench::span_seconds(spans, "plan.emit_plan")) *
              1e6,
          "us");
  rep.add("plan.verify_ms",
          perfbench::median(perfbench::span_seconds(spans, "plan.verify_plan")) *
              1e3,
          "ms");
  rep.add("plan.tiles", static_cast<double>(vr.stats.tiles), "count");
  rep.add("plan.edges", static_cast<double>(vr.stats.edges), "count");
  rep.add("naive.t1_glups", n * t_naive / naive_s[0] / 1e9, "GLUP/s");
  rep.add("naive.t4_glups", n * t_naive / naive_s[1] / 1e9, "GLUP/s");
}

// ---------------------------------------------------------------------------
// Stencil service

struct ServeStats {
  std::vector<double> latency_s;  ///< submit -> terminal result
  std::vector<double> exec_s;     ///< JobResult.seconds of Done jobs
  /// Done jobs as work items: submit and result time (seconds since the
  /// loop started) and the job's point updates.
  std::vector<perfbench::Work> served;
  std::int64_t batches = 0, rejected = 0;
};

class ServeHarness {
 public:
  explicit ServeHarness(std::string socket_path)
      : path_(std::move(socket_path)) {}

  bool start() {
    cats::serve::ServerConfig cfg;
    cfg.socket_path = path_;
    server_ = std::make_unique<cats::serve::Server>(cfg);
    std::string err;
    ScopedSpan sp("serve.start");
    if (!server_->start(&err)) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   err.c_str());
      server_.reset();
      return false;
    }
    return true;
  }
  void stop() {
    if (!server_) return;
    ScopedSpan sp("serve.stop");
    server_->request_drain();
    server_->wait();
    server_.reset();
  }
  ~ServeHarness() { stop(); }
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  const std::string& path() const { return path_; }
  cats::serve::Server& server() { return *server_; }

 private:
  std::string path_;
  std::unique_ptr<cats::serve::Server> server_;
};

cats::serve::JobRequest job_for(const Shape& s, std::uint64_t seed,
                                const std::string& tenant) {
  cats::serve::JobRequest rq;
  rq.tenant = tenant;
  rq.kernel = s.kernel;
  rq.nx = s.nx;
  rq.ny = s.ny;
  rq.nz = s.nz;
  rq.t_steps = s.T;
  rq.seed = seed;
  return rq;
}

/// Checksum of a job executed locally with Scheme::Naive.
std::uint64_t naive_job_checksum(cats::serve::JobRequest rq) {
  rq.scheme = cats::Scheme::Naive;
  cats::serve::ExecEnv env;
  env.threads = kThreads;
  ScopedSpan sp("serve.execute_job_naive");
  const cats::serve::JobResult r = cats::serve::execute_job(rq, env);
  return r.checksum;
}

/// Submit one job and check its terminal result against `want`.
bool submit_checked(cats::serve::Client& c,
                    const cats::serve::JobRequest& rq, std::uint64_t want,
                    std::int64_t req_id, const Timer& epoch, ServeStats& st) {
  std::string err;
  const double t0 = epoch.seconds();
  std::optional<cats::serve::JobResult> r;
  {
    ScopedSpan sp("serve.submit", req_id);
    r = c.submit(rq, &err);
  }
  const double t1 = epoch.seconds();
  const bool done = r && r->status == cats::serve::JobStatus::Done;
  const bool ok = done && r->checksum == want;
  if (!ok) {
    std::printf("# job %lld failed: %s\n", static_cast<long long>(req_id),
                !r ? err.c_str()
                   : (done ? "checksum mismatch"
                           : cats::serve::job_status_name(r->status)));
  }
  st.latency_s.push_back(t1 - t0);
  if (done) {
    st.exec_s.push_back(r->seconds);
    st.served.push_back(
        {t0, t1, static_cast<double>(cats::serve::job_cost(rq))});
  }
  return ok;
}

void collect_server_stats(cats::serve::Server& srv, ServeStats& st) {
  const cats::serve::SchedulerStats s = srv.scheduler().stats();
  st.rejected = s.rejected;
  st.batches = 0;
  for (const auto& sh : s.shards) st.batches += sh.batches;
}

void serve_layer_metrics(const ServeStats& st, Report& rep) {
  std::vector<double> overhead;
  double exec_sum = 0.0, lat_sum = 0.0;
  for (std::size_t i = 0; i < st.latency_s.size() && i < st.exec_s.size();
       ++i) {
    overhead.push_back(st.latency_s[i] - st.exec_s[i]);
    exec_sum += st.exec_s[i];
    lat_sum += st.latency_s[i];
  }
  rep.add("serve.exec_ms_p50", perfbench::median(st.exec_s) * 1e3, "ms");
  rep.add("serve.overhead_ms_p50", perfbench::median(overhead) * 1e3, "ms");
  rep.add("serve.exec_share", lat_sum > 0 ? exec_sum / lat_sum : 0.0, "frac");
  rep.add("serve.batches", static_cast<double>(st.batches), "count");
  rep.add("serve.rejected", static_cast<double>(st.rejected), "count");
}

/// Wire encode + parse of one submit and its result.
double protocol_round_trip_us() {
  cats::serve::Request rq;
  rq.op = cats::serve::Request::Op::Submit;
  rq.job = job_for({"const2d", 1024, 1024, 0, 60}, 7, "a");
  cats::serve::JobResult res;
  res.status = cats::serve::JobStatus::Done;
  res.scheme = "cats2";
  res.checksum = 0x0123456789abcdefULL;
  constexpr int kIters = 4000;
  ScopedSpan sp("serve.protocol");
  Timer t;
  for (int i = 0; i < kIters; ++i) {
    rq.job.seed = static_cast<std::uint64_t>(i);
    cats::serve::Request back;
    cats::serve::JobResult rback;
    std::string err;
    const std::string line = cats::serve::encode_request(rq);
    cats::serve::parse_request(line, &back, &err);
    const std::string rline = cats::serve::encode_result(res);
    cats::serve::parse_result(rline, &rback, &err);
  }
  return t.seconds() / kIters * 1e6;
}

/// The server's serve.* figures on a workload that runs no server: every
/// per-layer name appears in each traced result, these as 0.
void serve_not_applicable(Report& rep) {
  std::printf("# serve.* server figures: no server on this workload (0)\n");
  rep.add("serve.exec_ms_p50", 0.0, "ms");
  rep.add("serve.overhead_ms_p50", 0.0, "ms");
  rep.add("serve.exec_share", 0.0, "frac");
  rep.add("serve.batches", 0.0, "count");
  rep.add("serve.rejected", 0.0, "count");
}

// ---------------------------------------------------------------------------
// Workloads

void print_self_times(const Args& a, double glups_untraced,
                      double glups_traced, Report& rep) {
  const std::vector<perfbench::Span> spans = Tracer::get().spans();
  std::printf("# per-layer self time (span minus child coverage):\n");
  for (const auto& [layer, s] : perfbench::layer_self_seconds(spans))
    std::printf("#   %-16s %.4f s\n", layer.c_str(), s);
  std::printf("# tracing overhead: traced %.4f - untraced %.4f GLUP/s\n",
              glups_traced, glups_untraced);
  rep.add("trace.overhead_glups", glups_traced - glups_untraced, "GLUP/s");
  const std::string path =
      a.out + "/trace-" + a.workload + "-" + std::to_string(a.seed) + ".json";
  if (Tracer::get().write_chrome(path)) {
    std::printf("# trace: %zu spans -> %s\n", spans.size(), path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

template <class K>
void dram_workload(const Args& a, const Shape& shape, const Shape& small,
                   const Shape& l1, Report& rep, Tally& tally) {
  Machine m;
  if (a.trace) m = measure_machine(rep);

  const RefHash ref = naive_reference_hash<K>(shape, a.seed);

  // Set-up: construction plus first-touch parallel_init, five times; the
  // last kernel is kept for the timed loop.
  PeakRss rss;
  rss.reset();
  std::vector<double> setup_s;
  std::unique_ptr<K> k;
  for (int i = 0; i < 5; ++i) {
    k.reset();
    Timer t;
    {
      ScopedSpan sp("grid.construct");
      k = make_kernel<K>(shape);
    }
    {
      ScopedSpan sp("grid.parallel_init");
      seed_grid(*k, base_options(), a.seed);
    }
    setup_s.push_back(t.seconds());
  }

  const cats::SchemeChoice choice = cats::resolve_dispatch(
      cats::plan(*k, shape.T, base_options()), dims_of(shape));
  check_against_reference<K>(small, a.seed, choice, tally);

  const LoopResult loop = timed_loop(*k, shape, a.seed, ref, a.seconds,
                                     a.trace ? 4 : 3, tally, rss);
  const double glups = shape.updates() / typical_run_s(loop.untraced_s) / 1e9;
  Report::timing("run()", loop.untraced_s, 1e3, "ms");
  std::printf("# run(): lower quartile %.4g ms (sets glups)\n",
              typical_run_s(loop.untraced_s) * 1e3);

  if (!a.trace) {
    rep.add("glups", glups, "GLUP/s");
    rep.add("setup_s", perfbench::median(setup_s), "s");
    report_peak_rss(rss, rep);
    return;
  }
  layer_metrics(*k, shape, l1, a.seed, ref, loop, m, rep, tally);
  const double hash_ms =
      perfbench::median(perfbench::span_seconds(Tracer::get().spans(),
                                                "serve.fnv1a")) *
      1e3;
  serve_not_applicable(rep);
  rep.add("serve.checksum_ms", hash_ms, "ms");
  rep.add("serve.protocol_us", protocol_round_trip_us(), "us");
  print_self_times(
      a, glups, shape.updates() / typical_run_s(loop.traced_s) / 1e9, rep);
}

/// The serve_mix job menu: L2/L3-resident shapes, T from 40 to 80.
std::vector<Shape> serve_menu() {
  return {{"const2d", 512, 512, 0, 80},      {"const2d", 1024, 1024, 0, 60},
          {"const2d", 2048, 2048, 0, 40},    {"const2d_f32", 1024, 1024, 0, 60},
          {"const3d", 96, 96, 96, 80},       {"const3d", 128, 128, 128, 40}};
}

/// Grid seed of menu entry i: every job of one shape in a run computes the
/// same problem, so one naive reference checksum per shape checks them all.
std::uint64_t menu_seed(std::uint64_t seed, std::size_t i) { return seed + i; }

/// One closed-loop pass: `clients` threads each submit their next job only
/// after the previous one came back. A client works through the menu in
/// cycles, each a seeded shuffle of every entry, and stops at the first cycle
/// boundary after `seconds`, so both clients are busy until `seconds`.
ServeStats serve_loop(const Args& a, const std::string& path,
                      const std::vector<Shape>& menu,
                      const std::vector<std::uint64_t>& want, int clients,
                      double seconds, std::uint64_t stream, Tally& tally) {
  std::vector<ServeStats> per(static_cast<std::size_t>(clients));
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> th;
  Timer wall;
  for (int c = 0; c < clients; ++c) {
    th.emplace_back([&, c] {
      ServeStats& st = per[static_cast<std::size_t>(c)];
      Tally& ta = tallies[static_cast<std::size_t>(c)];
      cats::serve::Client cl;
      std::string err;
      if (!cl.connect(path, &err)) {
        std::printf("# client %d connect failed: %s\n", c, err.c_str());
        ta.record(false);
        return;
      }
      const std::string tenant(1, static_cast<char>('a' + c));
      std::vector<std::size_t> order(menu.size());
      std::int64_t job = 0;
      for (std::int64_t cycle = 0; wall.seconds() < seconds; ++cycle) {
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (std::size_t i = order.size() - 1; i > 0; --i) {
          const double u = cats::serve::init_value(a.seed + stream, c, cycle,
                                                   static_cast<int>(i));
          std::swap(order[i], order[static_cast<std::size_t>(u * (i + 1))]);
        }
        for (const std::size_t i : order) {
          const cats::serve::JobRequest rq =
              job_for(menu[i], menu_seed(a.seed, i), tenant);
          ta.record(
              submit_checked(cl, rq, want[i], c * 1000000 + job++, wall, st));
        }
      }
    });
  }
  for (auto& t : th) t.join();
  ServeStats all;
  for (std::size_t c = 0; c < per.size(); ++c) {
    tally.merge(tallies[c]);
    const ServeStats& st = per[c];
    all.latency_s.insert(all.latency_s.end(), st.latency_s.begin(),
                         st.latency_s.end());
    all.exec_s.insert(all.exec_s.end(), st.exec_s.begin(), st.exec_s.end());
    all.served.insert(all.served.end(), st.served.begin(), st.served.end());
  }
  return all;
}

/// Served throughput of a closed-loop pass in half-second windows up to
/// `seconds`, while both clients are busy: served point updates per second
/// (GLUP/s), each job's updates spread over its submit-to-result interval.
/// glups is the median window.
std::vector<double> serve_windows(const ServeStats& st, double seconds) {
  constexpr double kWindowS = 0.5;
  const auto n = static_cast<std::size_t>(std::max(1.0, seconds / kWindowS));
  std::vector<double> w = perfbench::window_rates(st.served, kWindowS, n);
  for (double& x : w) x /= 1e9;
  return w;
}

/// One serve_mix pass: server start to the first completed job, three times
/// (set-up), then the closed loop of kClients tenants on the last server for
/// `seconds`. The server stays up for the caller. peak_mib is the resident
/// high-water mark from the pass's start.
struct ServePass {
  std::vector<double> setup_s;
  ServeStats st;
  double peak_mib = 0.0;
  Tally tally;
};

constexpr int kClients = 2;

/// The set-up job: its checksum is known before the pass starts.
const Shape kSetupShape{"const2d", 1024, 1024, 0, 60};

ServePass serve_pass(const Args& a, ServeHarness& h,
                     const std::vector<Shape>& menu,
                     const std::vector<std::uint64_t>& want,
                     std::uint64_t setup_want, double seconds,
                     std::uint64_t stream) {
  ServePass p;
  PeakRss rss;
  rss.reset();
  for (int i = 0; i < 3; ++i) {
    h.stop();
    ServeStats st;
    Timer t;
    if (!h.start()) {
      p.tally.record(false);
      break;
    }
    cats::serve::Client c;
    std::string err;
    if (!c.connect(h.path(), &err)) {
      p.tally.record(false);
      continue;
    }
    p.tally.record(submit_checked(c, job_for(kSetupShape, a.seed, "setup"),
                                  setup_want, -1, t, st));
    p.setup_s.push_back(t.seconds());
  }
  p.st = serve_loop(a, h.path(), menu, want, kClients, seconds, stream,
                    p.tally);
  rss.sample();
  p.peak_mib = rss.mib();
  return p;
}

/// Runs serve_pass in a forked child, so that every pass starts from the
/// parent's heap and allocator state rather than the previous pass's, and
/// reads its result back through a pipe. The caller has no other threads.
/// False when the child did not report a complete result.
bool forked_serve_pass(const Args& a, const std::vector<Shape>& menu,
                       const std::vector<std::uint64_t>& want,
                       std::uint64_t setup_want, double seconds,
                       std::uint64_t stream, ServePass* out) {
  int fd[2];
  if (::pipe(fd) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fd[0]);
    ::close(fd[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fd[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ServePass p;
    {
      ServeHarness h(a.out + "/pb-" + std::to_string(::getpid()) + ".sock");
      p = serve_pass(a, h, menu, want, setup_want, seconds, stream);
    }
    std::string enc;
    char line[160];
    for (const double x : p.setup_s) {
      std::snprintf(line, sizeof line, "S %.17g\n", x);
      enc += line;
    }
    for (const double x : p.st.latency_s) {
      std::snprintf(line, sizeof line, "L %.17g\n", x);
      enc += line;
    }
    for (const perfbench::Work& w : p.st.served) {
      std::snprintf(line, sizeof line, "W %.17g %.17g %.17g\n", w.start,
                    w.end, w.amount);
      enc += line;
    }
    std::snprintf(line, sizeof line, "P %.17g\nT %lld %lld\nE\n", p.peak_mib,
                  static_cast<long long>(p.tally.attempted),
                  static_cast<long long>(p.tally.failed));
    enc += line;
    std::size_t off = 0;
    while (off < enc.size()) {
      const ssize_t n = ::write(fd[1], enc.data() + off, enc.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    std::fflush(stdout);
    ::_exit(off == enc.size() ? 0 : 1);
  }
  ::close(fd[1]);
  std::string in;
  char buf[65536];
  for (ssize_t n; (n = ::read(fd[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    in.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  bool complete = false;
  std::size_t pos = 0;
  while (pos < in.size()) {
    const std::size_t nl = in.find('\n', pos);
    const std::string l = in.substr(pos, nl - pos);
    pos = nl == std::string::npos ? in.size() : nl + 1;
    double x = 0, y = 0, z = 0;
    long long att = 0, fail = 0;
    if (std::sscanf(l.c_str(), "S %lf", &x) == 1) {
      out->setup_s.push_back(x);
    } else if (std::sscanf(l.c_str(), "L %lf", &x) == 1) {
      out->st.latency_s.push_back(x);
    } else if (std::sscanf(l.c_str(), "W %lf %lf %lf", &x, &y, &z) == 3) {
      out->st.served.push_back({x, y, z});
    } else if (std::sscanf(l.c_str(), "P %lf", &x) == 1) {
      out->peak_mib = x;
    } else if (std::sscanf(l.c_str(), "T %lld %lld", &att, &fail) == 2) {
      out->tally.attempted = att;
      out->tally.failed = fail;
    } else if (l == "E") {
      complete = true;
    }
  }
  return complete && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void serve_mix_workload(const Args& a, Report& rep, Tally& tally) {
  Machine m;
  if (a.trace) m = measure_machine(rep);
  const std::vector<Shape> menu = serve_menu();
  std::vector<std::uint64_t> want;
  for (std::size_t i = 0; i < menu.size(); ++i)
    want.push_back(
        naive_job_checksum(job_for(menu[i], menu_seed(a.seed, i), "ref")));
  const std::uint64_t setup_want =
      naive_job_checksum(job_for(kSetupShape, a.seed, "setup"));

  if (!a.trace) {
    // Ten passes, each in its own process. glibc's arenas keep freed job
    // grids resident in a pattern set by the first few seconds of job
    // interleaving, which then holds for the rest of a process: one
    // process's peak resident memory ranged 190-318 MiB across runs, in a
    // few discrete levels. Each figure is taken over all passes: glups and
    // setup_s as medians of the pooled samples, the peak as the mean of the
    // pass peaks.
    constexpr int kPasses = 10;
    std::vector<double> setup_s, peaks, windows;
    ServeStats all;
    for (int p = 0; p < kPasses; ++p) {
      ServePass r;
      const bool ok = forked_serve_pass(a, menu, want, setup_want,
                                        a.seconds / kPasses,
                                        static_cast<std::uint64_t>(p), &r);
      if (!ok) std::printf("# serve pass %d did not complete\n", p);
      tally.record(ok);
      tally.merge(r.tally);
      setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
      peaks.push_back(r.peak_mib);
      all.latency_s.insert(all.latency_s.end(), r.st.latency_s.begin(),
                           r.st.latency_s.end());
      const std::vector<double> w = serve_windows(r.st, a.seconds / kPasses);
      windows.insert(windows.end(), w.begin(), w.end());
    }
    Report::timing("job latency", all.latency_s, 1e3, "ms");
    std::printf("# pass peaks (MiB):");
    for (const double x : peaks) std::printf(" %.1f", x);
    std::printf("\n");
    rep.add("glups", perfbench::median(windows), "GLUP/s");
    rep.add("setup_s", perfbench::median(setup_s), "s");
    double peak_sum = 0.0;
    for (const double x : peaks) peak_sum += x;
    rep.add("peak_rss_mib", peak_sum / kPasses, "MiB");
    // Latency is printed, not gated: in a closed loop of two clients the
    // served throughput above already moves with it (Little's law).
    std::printf("job_ms_p50 %.6g ms\njob_ms_p90 %.6g ms (n=%zu)\n",
                perfbench::median(all.latency_s) * 1e3,
                perfbench::percentile(all.latency_s, 90.0) * 1e3,
                all.latency_s.size());
    return;
  }

  // The traced run splits its time between an untraced and a traced pass on
  // one server, whose throughput difference is the tracing overhead.
  const double pass_s = a.seconds / 2;
  ServeHarness h(a.out + "/pb-" + std::to_string(::getpid()) + ".sock");
  Tracer::get().set_enabled(false);
  ServePass first =
      serve_pass(a, h, menu, want, setup_want, pass_s, 0);
  tally.merge(first.tally);
  const double glups = perfbench::median(serve_windows(first.st, pass_s));
  Tracer::get().set_enabled(true);
  ServeStats tst = serve_loop(a, h.path(), menu, want, kClients, pass_s, 1,
                              tally);
  const double traced_glups = perfbench::median(serve_windows(tst, pass_s));
  collect_server_stats(h.server(), tst);
  h.stop();
  serve_layer_metrics(tst, rep);
  std::vector<double> hash_s;
  for (const Shape& s : menu) {
    // The checksum a job pays, at each menu shape's grid size.
    std::vector<double> g(static_cast<std::size_t>(s.points()), 0.5);
    ScopedSpan sp("serve.fnv1a");
    Timer t;
    cats::serve::fnv1a(g);
    hash_s.push_back(t.seconds());
  }
  rep.add("serve.checksum_ms", perfbench::median(hash_s) * 1e3, "ms");
  rep.add("serve.protocol_us", protocol_round_trip_us(), "us");

  // The remaining layers on the menu's largest 2D shape, run directly.
  const Shape probe = menu[2];
  const RefHash probe_ref = naive_reference_hash<K2>(probe, a.seed);
  auto k = make_kernel<K2>(probe);
  {
    ScopedSpan sp("grid.parallel_init");
    seed_grid(*k, base_options(), a.seed);
  }
  PeakRss rss;
  const LoopResult loop =
      timed_loop(*k, probe, a.seed, probe_ref, 1.0, 6, tally, rss);
  layer_metrics(*k, probe, {"const2d", 192, 8, 0, 0}, a.seed, probe_ref, loop,
                m, rep, tally);
  print_self_times(a, glups, traced_glups, rep);
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--out") {
      a->out = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && a->seconds > 0.0 &&
         (a->workload == "dram2d" || a->workload == "dram3d" ||
          a->workload == "serve_mix");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload dram2d|dram3d|serve_mix "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (a.trace) Tracer::get().set_enabled(true);
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  Report rep;
  Tally tally;
  if (a.workload == "dram2d") {
    dram_workload<K2>(a, {"const2d", 7680, 7680, 0, 100},
                      {"const2d", 640, 480, 0, 100},
                      {"const2d", 192, 8, 0, 0}, rep, tally);
  } else if (a.workload == "dram3d") {
    dram_workload<K3>(a, {"const3d", 384, 384, 384, 100},
                      {"const3d", 80, 72, 64, 100},
                      {"const3d", 64, 4, 4, 0}, rep, tally);
  } else {
    serve_mix_workload(a, rep, tally);
  }
  std::printf("failed_frac %.6g frac (%lld of %lld checked operations)\n",
              tally.failed_frac(), static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  rep.print_json(tally);
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}
