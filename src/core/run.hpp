#pragma once
// Public entry point.
//
//   cats::RunOptions opt;            // threads, cache size, scheme...
//   cats::run(kernel, T, opt);       // apply the stencil T times
//
// With Scheme::Auto this is the paper's "general CATS scheme": Eq. 1 picks
// the CATS1 chunk height; if the CATS1 wavefront would span fewer than 10
// timesteps the selector switches to CATS2 with the Eq. 2 diamond width.
// The returned SchemeChoice reports what the selector picked. Every scheme
// runs through one path: the choice is emitted as a TilePlan (plan/emit.hpp)
// and that plan — the one verify_plan certifies — is walked.

#include <cstdio>
#include <cstdlib>

#include "check/oracle.hpp"
#include "core/options.hpp"
#include "core/selector.hpp"
#include "core/stencil.hpp"
#include "plan/emit.hpp"
#include "plan/kernel_walk.hpp"

namespace cats {

template <RowKernel1D K>
DomainShape domain_shape(const K& k) {
  return {k.width(), k.width(), 0, 1};
}

template <RowKernel2D K>
DomainShape domain_shape(const K& k) {
  return {static_cast<std::int64_t>(k.width()) * k.height(), k.height(),
          k.width(), 2};
}

template <RowKernel3D K>
DomainShape domain_shape(const K& k) {
  return {static_cast<std::int64_t>(k.width()) * k.height() * k.depth(),
          k.depth(), k.height(), 3};
}

namespace detail {

struct Extents {
  int w = 1, h = 1, d = 1;
};

template <class K>
Extents extents(const K& k) {
  if constexpr (RowKernel3D<K>) {
    return {k.width(), k.height(), k.depth()};
  } else if constexpr (RowKernel2D<K>) {
    return {k.width(), k.height(), 1};
  } else {
    return {k.width(), 1, 1};
  }
}

}  // namespace detail

/// The options run(k, T, opt) executes with. Gauss-Seidel-style kernels
/// (same-timestep spatial reads) admit no split-tiling parallelism, so they
/// run serially and on the CATS1 wavefront (which still provides the full
/// temporal-locality benefit) unless the naive sweep was asked for. With
/// opt.tuning != Off and Scheme::Auto the persistent tuning DB is consulted
/// (apply_tuning), so a DB entry's thread count reaches execution too; a
/// miss falls back to Eq. 1/2 unchanged.
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
RunOptions resolve_options(const K& k, const RunOptions& opt) {
  RunOptions eff = opt;
  if constexpr (kernel_sequential_deps<K>()) {
    eff.threads = 1;
    if (eff.scheme != Scheme::Naive) eff.scheme = Scheme::Cats1;
  }
  if (eff.tuning != Tuning::Off) {
    eff = apply_tuning(eff, kernel_tuning_id(k), domain_shape(k));
  }
  eff.unroll_t = sanitize_unroll_t(eff.unroll_t);
  eff.mwd_group = sanitize_mwd_group(eff.mwd_group, eff.threads, eff.scheme);
  return eff;
}

/// The plan request for kernel k: its extents and cost model (slope, CS',
/// element size) plus already-resolved options.
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
plan_ir::PlanRequest plan_request(const K& k, int T, const RunOptions& opt) {
  const detail::Extents e = detail::extents(k);
  plan_ir::PlanRequest rq;
  rq.dims = RowKernel3D<K> ? 3 : RowKernel2D<K> ? 2 : 1;
  rq.nx = e.w;
  rq.ny = e.h;
  rq.nz = e.d;
  rq.T = T;
  rq.slope = k.slope();
  rq.cs_eff = effective_cs(k, opt.cs_slack);
  rq.elem_bytes = kernel_element_bytes(k);
  rq.opt = opt;
  return rq;
}

/// Scheme + parameters that run(k, T, opt) would use (without running).
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
SchemeChoice plan(const K& k, int T, const RunOptions& opt) {
  return plan_ir::select_plan(plan_request(k, T, resolve_options(k, opt)));
}

/// Apply the kernel's stencil T times with the selected scheme: resolve the
/// options, select once, emit the plan (plan/emit.hpp) and walk it
/// (plan/kernel_walk.hpp). Returns the unresolved choice — what the
/// selector picked, before the dimensional fallbacks emit_plan applies.
template <class K>
  requires RowKernel1D<K> || RowKernel2D<K> || RowKernel3D<K>
SchemeChoice run(K& k, int T, const RunOptions& opt) {
  // Validation mode (opt.validate or CATS_VALIDATE in the environment):
  // attach a temporary dependence oracle for this run, then require a clean
  // report — any violated dependence prints its precise diagnostic and
  // aborts, so a schedule regression fails fast in any build type.
  if (T > 0 && opt.oracle == nullptr &&
      (opt.validate || check::validate_env_enabled())) {
    const detail::Extents e = detail::extents(k);
    check::DepOracle oracle(e.w, e.h, e.d, k.slope(), opt.threads);
    RunOptions vopt = opt;
    vopt.oracle = &oracle;
    vopt.validate = false;
    const SchemeChoice choice = run(k, T, vopt);
    oracle.check_complete(T);
    if (!oracle.ok()) {
      oracle.print_report(stderr);
      std::fprintf(stderr,
                   "cats: dependence-oracle validation failed (%lld "
                   "violations), aborting\n",
                   static_cast<long long>(oracle.violation_count()));
      std::abort();
    }
    return choice;
  }
  const RunOptions eff = resolve_options(k, opt);
  const plan_ir::PlanRequest rq = plan_request(k, T, eff);
  const SchemeChoice choice = plan_ir::select_plan(rq);
  if (T <= 0) return choice;
  const plan_ir::TilePlan p = plan_ir::emit_plan(rq, choice);
  // The PluTo-like baseline walks the kernel's scalar row: the paper's
  // auto-vectorized-only comparison point.
  if (p.scheme == Scheme::PlutoLike) {
    plan_ir::run_plan<true>(k, p, eff);
  } else {
    plan_ir::run_plan(k, p, eff);
  }
  return choice;
}

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::Auto: return "Auto";
    case Scheme::Naive: return "Naive";
    case Scheme::Cats1: return "CATS1";
    case Scheme::Cats2: return "CATS2";
    case Scheme::Cats3: return "CATS3";
    case Scheme::Mwd: return "MWD";
    case Scheme::PlutoLike: return "PluTo-like";
  }
  return "?";
}

}  // namespace cats
