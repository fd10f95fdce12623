#pragma once
// Temporal micro-kernel drivers: dependence-legal staggered sweeps over a
// *wavefront chain* — the maximal run of consecutive slabs (t, p), (t+1,
// p-s), ..., (t+u-1, p-(u-1)s) that a CATS tile keeps cache-resident along
// one wavefront (a CATS1 column, a CATS2 tube's per-w time run). The engine
// (wave/engine.hpp) detects chains; this header holds the stagger rules and
// the generic row-granularity driver.
//
// Stagger proof (both drivers; stage g = the chain's g-th slab, u <= 4):
//
//  * Flow dependence. Stage g+1 computes points at timestep t+g+1 reading
//    the slope-s box at t+g. Within the chain, the only t+g data not already
//    complete is stage g's own output (earlier wavefronts were computed by
//    earlier chains/tiles; data *outside* stage g's space range belongs to
//    neighbor tiles whose done/progress edges were waited out before this
//    tile started — the group never reorders across a tile's entry waits).
//    Stage g+1 at position q reads stage g's output at positions q-s..q+s,
//    so it may run as soon as stage g has completed through q+s.
//
//  * WAR hazard. Stage g+1 writes the (t+g+1) & 1 buffer parity — the same
//    parity stage g *reads* as its (t+g-1) input. The aliased plane/row is
//    stage g's input at offset -s (stage g+1's position is s below stage
//    g's), and stage g's last read of aliased position q happens while
//    computing its own position q+s. Hence the same bound: stage g+1 may
//    overwrite position q once stage g has completed through q+s.
//
//  * Non-adjacent stages alias nothing: stage g+2 writes parity (t+g) & 1 at
//    positions 2s below stage g's writes of the same parity, and its reads of
//    stage g+1's parity are the adjacent-pair cases above relabeled. So
//    pairwise-adjacent safety implies group safety for any u.
//
// Both obligations reduce to "stage g stays >= s positions ahead of stage
// g+1, counting a position complete only when fully computed". The 2D driver
// (kernel process_stages, e.g. kernels/const2d.hpp) staggers stages by
// x-chunks of >= s points along the fused rows; the 3D driver below staggers
// whole x-rows by exactly s rows in y, running stages in ascending order
// within a step so stage g's row r+s finishes before stage g+1 touches row
// r. Every point still sees the identical operation tree as the unfused
// walk, so fusion is bit-exact (simd/vecd.hpp lane contract).

#include <algorithm>

#include "core/stencil.hpp"

namespace cats::wave {

/// Opt-in marker for engine-side temporal fusion: the kernel's process_row
/// accesses are contained in the slope-s box at t-1 (star or box shaped),
/// with no same-timestep or multi-field coupling the stagger proof above
/// does not cover. Kernels declare `static constexpr bool wave_fusable =
/// true`; everything else (Gauss-Seidel, FDTD's three coupled fields) runs
/// unfused.
template <class K>
constexpr bool wave_fusable_v = requires {
  requires K::wave_fusable;
};

/// One slab of a 3D fused group: the z-plane at timestep t, rows
/// [ylo, yhi] x [x0, x1).
struct Stage3 {
  int t = 0;
  int z = 0;
  int ylo = 0, yhi = 0;
  int x0 = 0, x1 = 0;
};

/// Row-staggered 3D group sweep: at step r, stage g computes row r - g*s of
/// its own plane (skipped outside the stage's y-range — per-stage ranges
/// differ in CATS2 diamonds and at domain edges; out-of-range rows are
/// neighbor tiles' work, complete before this tile began). Ascending g
/// within a step makes the stagger exactly s rows, the minimum the proof
/// needs.
template <class K>
void run_fused_3d(K& k, const Stage3* st, int n, int s) {
  int rlo = st[0].ylo;
  int rhi = st[0].yhi;
  for (int g = 1; g < n; ++g) {
    rlo = std::min(rlo, st[g].ylo + g * s);
    rhi = std::max(rhi, st[g].yhi + g * s);
  }
  for (int r = rlo; r <= rhi; ++r) {
    for (int g = 0; g < n; ++g) {
      const int y = r - g * s;
      if (y < st[g].ylo || y > st[g].yhi) continue;
      k.process_row(st[g].t, y, st[g].z, st[g].x0, st[g].x1);
    }
  }
}

/// run_fused_3d with every row driven through the kernel's temporally-
/// vectorized body (process_row_tv, see wave/temporal_vec.hpp): same
/// row-staggered schedule, same stagger proof, identical per-point operation
/// tree.
template <class K>
void run_fused_3d_tv(K& k, const Stage3* st, int n, int s) {
  int rlo = st[0].ylo;
  int rhi = st[0].yhi;
  for (int g = 1; g < n; ++g) {
    rlo = std::min(rlo, st[g].ylo + g * s);
    rhi = std::max(rhi, st[g].yhi + g * s);
  }
  for (int r = rlo; r <= rhi; ++r) {
    for (int g = 0; g < n; ++g) {
      const int y = r - g * s;
      if (y < st[g].ylo || y > st[g].yhi) continue;
      k.process_row_tv(st[g].t, y, st[g].z, st[g].x0, st[g].x1);
    }
  }
}

}  // namespace cats::wave
