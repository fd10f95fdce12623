// cats_plan_check: emit a scheme's static tile plan and verify it without
// executing anything.
//
// Every scheme first emits its schedule as a TilePlan (src/plan) and then
// walks it; this tool runs the same emission for an arbitrary configuration
// and hands the plan to the static verifier (plan/verify.hpp): dependence
// coverage (symbolic happens-before over the tile DAG), cache-residency
// certification (wavefront working set vs Z, Eq. 1 / Eq. 2 conformance) and
// progress (resolvable waits, acyclic sync graph, full domain coverage).
//
//   $ cats_plan_check --scheme cats2 --dims 2 --nx 2048 --ny 2048 --t 64
//   $ cats_plan_check --sweep              # CI: ~1000 configurations
//
// Cost scales with the plan's slab count (domain volume x timesteps / tile
// size), not with points: the 2048^2 x 64 example above checks ~58M halo
// pairs in ~10 s; the CI sweep's ~1000 small configurations take < 1 s.
//
// Options:
//   --scheme S       auto | naive | cats1 | cats2 | cats3 | pluto
//                    (default auto)
//   --dims D         1 | 2 | 3 (default 2)
//   --nx/--ny/--nz   domain extents (defaults 256/256/256 as applicable)
//   --t T            timesteps (default 32)
//   --slope S        stencil slope (default 1)
//   --threads N      worker threads (default 4)
//   --cache-bytes Z  per-thread cache budget; 0 = detect (default 32768)
//   --cs-eff C       effective CS' per point (default 2.8 = 2s + 0.8, s=1)
//   --tz/--bz/--bx   parameter overrides (disable residency certification)
//   --strict         treat warnings as failures
//   --dump           print every tile and sync edge of the plan
//   --sweep          verify the built-in configuration grid and exit
//
// Exit status: 0 = all plans verified, 1 = a verification error (or, with
// --strict, a warning), 2 = usage error.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "plan/emit.hpp"
#include "plan/verify.hpp"

using namespace cats;
using namespace cats::plan_ir;

namespace {

struct Args {
  Scheme scheme = Scheme::Auto;
  int dims = 2;
  std::int64_t nx = 0, ny = 0, nz = 0;  // 0 = default for dims
  int T = 32;
  int slope = 1;
  int threads = 4;
  long long cache_bytes = 32768;
  double cs_eff = 2.8;
  int tz = 0;
  long long bz = 0, bx = 0;
  bool strict = false;
  bool dump = false;
  bool sweep = false;
};

bool parse_scheme(const std::string& s, Scheme& out) {
  if (s == "auto") out = Scheme::Auto;
  else if (s == "naive") out = Scheme::Naive;
  else if (s == "cats1") out = Scheme::Cats1;
  else if (s == "cats2") out = Scheme::Cats2;
  else if (s == "cats3") out = Scheme::Cats3;
  else if (s == "pluto") out = Scheme::PlutoLike;
  else return false;
  return true;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](long long& out) {
      if (i + 1 >= argc) return false;
      out = std::atoll(argv[++i]);
      return true;
    };
    long long v = 0;
    if (arg == "--scheme" && i + 1 < argc) {
      if (!parse_scheme(argv[++i], a.scheme)) return false;
    } else if (arg == "--dims" && next(v)) {
      a.dims = static_cast<int>(v);
    } else if (arg == "--nx" && next(v)) {
      a.nx = v;
    } else if (arg == "--ny" && next(v)) {
      a.ny = v;
    } else if (arg == "--nz" && next(v)) {
      a.nz = v;
    } else if (arg == "--t" && next(v)) {
      a.T = static_cast<int>(v);
    } else if (arg == "--slope" && next(v)) {
      a.slope = static_cast<int>(v);
    } else if (arg == "--threads" && next(v)) {
      a.threads = static_cast<int>(v);
    } else if (arg == "--cache-bytes" && next(v)) {
      a.cache_bytes = v;
    } else if (arg == "--cs-eff" && i + 1 < argc) {
      a.cs_eff = std::atof(argv[++i]);
    } else if (arg == "--tz" && next(v)) {
      a.tz = static_cast<int>(v);
    } else if (arg == "--bz" && next(v)) {
      a.bz = v;
    } else if (arg == "--bx" && next(v)) {
      a.bx = v;
    } else if (arg == "--strict") {
      a.strict = true;
    } else if (arg == "--dump") {
      a.dump = true;
    } else if (arg == "--sweep") {
      a.sweep = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

PlanRequest make_request(const Args& a) {
  PlanRequest rq;
  rq.dims = a.dims;
  rq.nx = a.nx > 0 ? a.nx : 256;
  rq.ny = a.dims >= 2 ? (a.ny > 0 ? a.ny : 256) : 1;
  rq.nz = a.dims >= 3 ? (a.nz > 0 ? a.nz : 256) : 1;
  rq.T = a.T;
  rq.slope = a.slope;
  rq.cs_eff = a.cs_eff;
  rq.opt.scheme = a.scheme;
  rq.opt.threads = a.threads;
  rq.opt.cache_bytes = static_cast<std::size_t>(a.cache_bytes);
  rq.opt.tz_override = a.tz;
  rq.opt.bz_override = static_cast<int>(a.bz);
  rq.opt.bx_override = static_cast<int>(a.bx);
  return rq;
}

void dump_plan(const TilePlan& p) {
  std::printf("plan: scheme=%s dims=%d domain=%lldx%lldx%lld T=%d s=%d "
              "threads=%d phases=%d tz=%d bz=%lld bx=%lld\n",
              scheme_name(p.scheme), p.dims, static_cast<long long>(p.nx),
              static_cast<long long>(p.ny), static_cast<long long>(p.nz), p.T,
              p.slope, p.threads, p.phases, p.tz,
              static_cast<long long>(p.bz), static_cast<long long>(p.bx));
  for (std::size_t i = 0; i < p.tiles.size(); ++i) {
    const Tile& t = p.tiles[i];
    std::printf(
        "  tile %4zu owner=%d phase=%d kind=%d t=[%d,%d] u=%lld tau=[%lld,"
        "%lld] d=(%lld,%lld) q=%lld base=[%lld,%lld]x[%lld,%lld]x[%lld,%lld]"
        "%s%s\n",
        i, t.owner, t.phase, static_cast<int>(t.kind), t.t0, t.t1,
        static_cast<long long>(t.u), static_cast<long long>(t.tau_lo),
        static_cast<long long>(t.tau_hi), static_cast<long long>(t.di),
        static_cast<long long>(t.dj), static_cast<long long>(t.q),
        static_cast<long long>(t.base.xlo), static_cast<long long>(t.base.xhi),
        static_cast<long long>(t.base.ylo), static_cast<long long>(t.base.yhi),
        static_cast<long long>(t.base.zlo), static_cast<long long>(t.base.zhi),
        t.publishes_progress ? " +progress" : "",
        t.publishes_done ? " +done" : "");
  }
  for (const SyncEdge& e : p.edges) {
    std::printf("  edge %d -> %d %s %lld\n", e.from, e.to,
                e.kind == SyncEdge::Kind::Done ? "done" : "progress>=",
                static_cast<long long>(e.value));
  }
}

/// Verify one configuration; print diagnostics on failure. Returns true when
/// the plan is acceptable (no errors; no warnings either under strict).
bool check_one(const PlanRequest& rq, bool strict, bool verbose,
               VerifyStats* acc) {
  const TilePlan p = emit_plan(rq);
  const VerifyReport rep = verify_plan(p);
  if (acc != nullptr) {
    acc->tiles += rep.stats.tiles;
    acc->slabs += rep.stats.slabs;
    acc->edges += rep.stats.edges;
    acc->dep_pairs_checked += rep.stats.dep_pairs_checked;
  }
  const bool fail = rep.errors() > 0 || (strict && rep.warnings() > 0);
  if (fail || verbose) {
    std::printf("%s dims=%d %lldx%lldx%lld T=%d s=%d threads=%d Z=%zu "
                "(emitted %s): %s\n",
                fail ? "FAIL" : "ok", rq.dims,
                static_cast<long long>(rq.nx), static_cast<long long>(rq.ny),
                static_cast<long long>(rq.nz), rq.T, rq.slope,
                rq.opt.threads, rq.opt.cache_bytes, scheme_name(p.scheme),
                rep.summary().c_str());
    for (const Diag& d : rep.diags) {
      std::printf("  %s\n", d.to_string().c_str());
    }
  }
  return !fail;
}

int run_sweep(bool strict) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<PlanRequest> grid;
  const Scheme schemes1[] = {Scheme::Auto, Scheme::Naive, Scheme::Cats1,
                             Scheme::Cats2, Scheme::PlutoLike};
  const Scheme schemes[] = {Scheme::Auto,  Scheme::Naive, Scheme::Cats1,
                            Scheme::Cats2, Scheme::Cats3, Scheme::PlutoLike};
  const int slopes[] = {1, 2};
  const int ts[] = {3, 13};
  // Degenerate 256 B caches drive the selector through its clamp floors;
  // 1 MiB with tiny domains drives the INT_MAX/huge-TZ end.
  const std::size_t caches1[] = {2048, 32768, 1u << 20};
  const std::size_t caches[] = {256, 4096, 65536};

  for (const Scheme sc : schemes1) {
    for (const std::int64_t nx : {17, 64}) {
      for (const int T : ts) {
        for (const int s : slopes) {
          for (const int th : {1, 2, 5}) {
            for (const std::size_t z : caches1) {
              PlanRequest rq;
              rq.dims = 1;
              rq.nx = nx;
              rq.T = T;
              rq.slope = s;
              rq.cs_eff = 2.0 * s + 0.8;
              rq.opt.scheme = sc;
              rq.opt.threads = th;
              rq.opt.cache_bytes = z;
              grid.push_back(rq);
            }
          }
        }
      }
    }
  }
  for (const Scheme sc : schemes) {
    for (const auto& [nx, ny] :
         {std::pair<std::int64_t, std::int64_t>{40, 28}, {64, 48}}) {
      for (const int T : {4, 12}) {
        for (const int s : slopes) {
          for (const int th : {1, 2, 4}) {
            for (const std::size_t z : caches) {
              PlanRequest rq;
              rq.dims = 2;
              rq.nx = nx;
              rq.ny = ny;
              rq.T = T;
              rq.slope = s;
              rq.cs_eff = 2.0 * s + 0.8;
              rq.opt.scheme = sc;
              rq.opt.threads = th;
              rq.opt.cache_bytes = z;
              grid.push_back(rq);
            }
          }
        }
      }
    }
  }
  for (const Scheme sc : schemes) {
    for (const int T : {4, 12}) {
      for (const int s : slopes) {
        for (const int th : {1, 2, 4}) {
          for (const std::size_t z : caches) {
            PlanRequest rq;
            rq.dims = 3;
            rq.nx = 16;
            rq.ny = 12;
            rq.nz = 14;
            rq.T = T;
            rq.slope = s;
            rq.cs_eff = 2.0 * s + 0.8;
            rq.opt.scheme = sc;
            rq.opt.threads = th;
            rq.opt.cache_bytes = z;
            grid.push_back(rq);
          }
        }
      }
    }
  }

  VerifyStats acc;
  std::size_t failures = 0;
  for (const PlanRequest& rq : grid) {
    if (!check_one(rq, strict, false, &acc)) ++failures;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("sweep: %zu configurations, %lld tiles, %lld slabs, %lld sync "
              "edges, %lld dep pairs in %.2f s -> %zu failure(s)\n",
              grid.size(), static_cast<long long>(acc.tiles),
              static_cast<long long>(acc.slabs),
              static_cast<long long>(acc.edges),
              static_cast<long long>(acc.dep_pairs_checked), secs, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return 2;
  if (a.sweep) return run_sweep(a.strict);
  if (a.dims < 1 || a.dims > 3) {
    std::fprintf(stderr, "--dims must be 1, 2 or 3\n");
    return 2;
  }
  const PlanRequest rq = make_request(a);
  if (a.dump) dump_plan(emit_plan(rq));
  return check_one(rq, a.strict, true, nullptr) ? 0 : 1;
}
