#pragma once
// Static schedule verifier: checks an emitted TilePlan with no execution.
//
// Three certificate families (see DESIGN.md §11):
//
//  (a) Dependence coverage — every slope-s space-time dependence between
//      slabs at consecutive timesteps must be ordered: by the intra-tile
//      slab order, by the owner thread's program order, or by a recorded
//      sync edge / barrier phase. Happens-before is computed symbolically
//      over the tile DAG with per-owner vector clocks (O(tiles * threads)),
//      never per point. The rule is symmetric in the double-buffered field:
//      "every slab touching (x +- s, t-1) happens-before the slab computing
//      (x, t)" covers both the flow dependence (reads of t-1) and the WAR
//      hazard (the write at t overwrites the t-2 buffer that t-1 consumers
//      read).
//
//  (b) Cache-residency certification — the largest wavefront working set in
//      the plan (cells per wavefront * CS' * element bytes) must fit in Z,
//      and the emitted TZ/BZ must not exceed Eq. 1 / Eq. 2 recomputed from
//      the plan's own cache model. Eq. 2 being a continuous bound, diamond
//      schemes are granted the lattice-discretization slack of bz extra
//      cross-section cells (see verify.cpp). Plans whose parameters were
//      clamp-floored by the selector (TZ < 1, raw BZ < 2s) report warnings,
//      not errors.
//
//  (c) Progress — every sync edge is resolvable (a Done producer publishes,
//      a ProgressGE bound is eventually published by the producer thread in
//      the same phase) and the combined sync graph (program order + edges +
//      barrier phases) is acyclic, so every tile is reached.
//
// Additionally the slab geometry itself is audited: per timestep the slabs
// must partition the domain (no overlap, no gap, nothing outside).

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan.hpp"

namespace cats::plan_ir {

enum class DiagKind : std::uint8_t {
  MalformedPlan,    ///< structural invariant broken (owner/phase bounds, ...)
  OutOfDomain,      ///< a slab reaches outside [0,nx) x [0,ny) x [0,nz)
  TileOverlap,      ///< two slabs at one timestep share a point
  CoverageGap,      ///< a timestep's slabs do not cover the whole domain
  DepUncovered,     ///< a slope-s dependence with no happens-before order
  StuckWait,        ///< a sync edge no publish can ever satisfy (deadlock)
  SyncCycle,        ///< the sync graph has a cycle (deadlock)
  WavefrontOverflow,///< a wavefront working set exceeds Z
  TzExceedsEq1,     ///< plan TZ above Eq. 1 for the plan's cache model
  BzExceedsEq2,     ///< plan BZ/BX above Eq. 2 / the CATS3 sizing
};

const char* diag_kind_name(DiagKind k);

struct Diag {
  DiagKind kind{};
  bool warning = false;  ///< true = advisory (clamped plans), false = error
  std::int32_t tile_a = -1;  ///< consumer / first tile involved
  std::int32_t tile_b = -1;  ///< producer / second tile involved
  int t = 0;                 ///< timestep of the witness (consumer side)
  std::int64_t x = 0, y = 0, z = 0;     ///< witness point (consumer/overlap)
  std::int64_t nx = 0, ny = 0, nz = 0;  ///< producer-side witness point
  std::int64_t bytes = 0;  ///< residency: working set; coverage: cells found
  std::int64_t limit = 0;  ///< residency: Z; coverage: cells expected
  std::string detail;      ///< human-readable specifics
  std::string to_string() const;
};

struct VerifyStats {
  std::int64_t tiles = 0;
  std::int64_t edges = 0;
  std::int64_t slabs = 0;
  std::int64_t dep_pairs_checked = 0;  ///< slab pairs tested for ordering
  std::int64_t max_wavefront_bytes = 0;
};

struct VerifyReport {
  std::vector<Diag> diags;  ///< errors first is NOT guaranteed; check kind
  VerifyStats stats;
  std::int64_t suppressed = 0;  ///< diags dropped beyond max_diags

  std::size_t errors() const;
  std::size_t warnings() const;
  bool ok() const { return errors() == 0; }
  std::string summary() const;
};

struct VerifyOptions {
  std::size_t max_diags = 64;
};

VerifyReport verify_plan(const TilePlan& plan, const VerifyOptions& opt = {});

}  // namespace cats::plan_ir
