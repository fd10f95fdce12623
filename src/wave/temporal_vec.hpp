#pragma once
// Temporal vectorization of the wave micro-kernel (Yuan et al., "Temporal
// Vectorization for Stencils"; Li et al., "An Efficient Vectorization Scheme
// for Stencil Computation" — see PAPERS.md).
//
// The spatially-vectorized chain body (kernel process_stages /
// run_fused_3d) reloads every x-neighborhood operand from cache: 4s+1 (2D
// star) unaligned loads per output vector, most of them overlapping the
// loads of the previous vector — and on 512-bit builds every x+-k load
// straddles a cache line (a split load, ~2x the cost of an aligned one).
// The TV mode replaces that overlapping traffic with in-register data
// movement:
//
//  1. ShiftWindow — a ring of aligned vector registers covering
//     [x - Q*W, x + (Q+1)*W) of one row. Advancing the window costs ONE
//     aligned load; every x-offset operand in [-S, S] is then materialized
//     by a register shuffle (V::shuffle<K>, an in-register lane-concatenating
//     extract) instead of a split-load reload.
//
//  2. run_stages_tv — the chain-group driver: each of the N fused timesteps
//     sweeps its row through the window in one tight pass (unaligned edge
//     vector, plain-vector edge cells, windowed interior, plain-vector edge
//     cells, unaligned edge vector). Stages run to completion in timestep
//     order, which satisfies
//     both chain hazards trivially — stage g's output row is fully written
//     before stage g+1 reads it (flow), and stage g has finished reading the
//     t-1 parity row before stage g+1 overwrites it (WAR); this is the
//     degenerate case of the stagger proof in microkernel.hpp (producer
//     arbitrarily far ahead). The just-retired row is cache-resident when
//     the next stage consumes it: the chain forwards through cache, the
//     x-neighborhood forwards through registers.
//
// Two other forms of this driver measured slower on the bench suite and are
// documented in DESIGN.md §14: a cell-granular software pipeline with a
// validity-tagged cross-stage forwarding ring lost ~2x (per-cell scheduling
// cost rivaled the stencil arithmetic; the forwarded operand only replaced
// an L1-resident load), and a chunk-interleaved pipeline that staggered the
// stages at process_stages granularity lost ~10-20% (the per-chunk window
// spill/reload and range-intersection bookkeeping outweighed the L1 reuse
// it bought). Milder hybrids — next-stage stream prefetch and vertical
// panel interleave (equal split points, for-panel/for-stage order, which is
// hazard-free by the same argument) — also measured at or below the
// sequential driver, so the plain order stands.
//
// Correctness containment: every arithmetic body invoked by the driver
// evaluates the IDENTICAL per-point operation tree as the plain span body
// (same FMA order, same operand values — shuffles move exact bits). The TV
// path is therefore bit-exact against the serial reference whenever the
// plain wave path is; kernels advertise that with `tv_bit_exact` (see
// core/stencil.hpp).
//
// Memory-safety containment: windowed (shuffle-fed) cells are restricted to
// x where the window stays inside [x0 - S, x1 - 1 + S] — exactly the plain
// body's read reach, which the tile schedule guarantees is data-race free.
// Edge cells outside that region fall back to the plain unaligned-load
// body; the ragged range ends are covered by one unaligned vector each
// (reads within [x0 - S, x1 - 1 + S], stores within [x0, x1)), overlapping
// the adjacent aligned cell with bit-identical values; ranges narrower than
// one vector run scalar.

#include <algorithm>
#include <type_traits>

namespace cats::wave {

/// Sliding register window over one row of values. V is the vector type, T
/// its element type, S the stencil slope (max |x-offset| read). The window
/// holds 2*Q+1 aligned vectors where Q = ceil(S / W): w[i] covers
/// [x + (i-Q)*W, x + (i-Q+1)*W) for the current anchor x (itself W-aligned
/// relative to the walk, not necessarily absolutely aligned — only relative
/// W-strides matter).
template <class V, class T, int S>
struct ShiftWindow {
  static constexpr int W = V::width;
  static constexpr int Q = (S + W - 1) / W;
  static constexpr int kVecs = 2 * Q + 1;

  V w[kVecs];

  /// Load the full window around anchor x of row c.
  void prime(const T* c, int x) {
    for (int i = 0; i < kVecs; ++i) w[i] = V::load(c + x + (i - Q) * W);
  }

  /// Slide the anchor from x-W to x: shift the ring down one vector and load
  /// only the new leading edge.
  void advance(const T* c, int x) {
    for (int i = 0; i + 1 < kVecs; ++i) w[i] = w[i + 1];
    w[kVecs - 1] = V::load(c + x + Q * W);
  }

  /// The vector covering [x + O, x + O + W) for a compile-time offset
  /// O in [-S, S]: either a window vector directly (O a multiple of W) or
  /// one shuffle of two adjacent window vectors.
  template <int O>
  V get() const {
    constexpr int q = O >= 0 ? O / W : -((-O + W - 1) / W);
    constexpr int r = O - q * W;
    static_assert(q >= -Q && q + (r != 0 ? 1 : 0) <= Q, "offset exceeds window");
    if constexpr (r == 0) {
      return w[Q + q];
    } else {
      return V::template shuffle<r>(w[Q + q], w[Q + q + 1]);
    }
  }
};

/// Windowed driver for one chain group of n fused timesteps (n <= 4; n == 1
/// never reaches the TV path).
///
/// Stage is the kernel's resolved per-timestep descriptor and must expose
/// `.c` (center input row), `.o` (output row) and `.x0`/`.x1` (the stage's
/// x-range). The three bodies supply the arithmetic:
///   win_body(stage, x, window) -> V   windowed interior vector at x; all
///                                     center-row operands come from the
///                                     ShiftWindow.
///   vec_body(stage, x)         -> V   plain unaligned-load vector
///                                     (window-illegal edge cells).
///   sc_body(stage, a, b)              scalar points [a, b) incl. store.
///
/// Cells live on the absolute W-grid (cell bi covers [bi*W, (bi+1)*W)), so
/// window loads and full-cell stores are aligned whenever the row base is
/// (Grid2D pads the interior origin to the vector width). Each stage runs
/// to completion before the next starts — see the header comment for why
/// that order is hazard-free and why it beat both pipelined drivers.
template <int S, class V, class T, class Stage, class WinBody,
          class VecBody, class ScBody>
void run_stages_tv(const Stage* sg, int n, WinBody&& win_body,
                   VecBody&& vec_body, ScBody&& sc_body) {
  constexpr int W = V::width;
  constexpr int Q = (S + W - 1) / W;  // window reach in cells
  for (int g = 0; g < n; ++g) {
    const Stage& s = sg[g];
    if (s.x1 - s.x0 < W) {
      sc_body(s, s.x0, s.x1);  // range narrower than one vector
      continue;
    }
    // Ragged edges: one unaligned vector flush against each end of the
    // range instead of scalar head/tail points. The overlap with the first/
    // last aligned cell is harmless — both write the identical value (same
    // operation tree, bit-exact), so the double store is a rewrite, and
    // stages never read their own output row. This matters because diamond
    // slices put x0 anywhere mod W: a scalar head+tail averages W-1 serial
    // stencil points per stage, which measured as the entire TV deficit on
    // narrow slices (DESIGN.md §14).
    const auto edge = [&](int x) { vec_body(s, x).store(s.o + x); };
    // Full cells of stage g: [ceil(x0/W), floor(x1/W)). Windowed (interior)
    // cells additionally keep the window's read reach [x-Q*W, x+(Q+1)*W)
    // inside the legal [x0-S, x1-1+S]; both ceil numerators are
    // non-negative here (x0 >= 0, Q*W >= S).
    const int fl = (s.x0 + W - 1) / W;
    const int fh = s.x1 / W;
    if (fl >= fh) {
      // Range >= W but straddles a cell boundary without covering a full
      // cell: two overlapping unaligned vectors span it exactly.
      edge(s.x0);
      if (s.x1 - W > s.x0) edge(s.x1 - W);
      continue;
    }
    const int il = std::max(fl, (s.x0 + Q * W - S + W - 1) / W);
    const int top = s.x1 + S - (Q + 1) * W;
    const int ih = std::max(il, std::min(fh, top >= 0 ? top / W + 1 : 0));
    if (s.x0 < fl * W) edge(s.x0);
    const auto put = [&](int x, V v) { v.store(s.o + x); };
    for (int bi = fl; bi < il; ++bi) put(bi * W, vec_body(s, bi * W));
    if (il < ih) {
      ShiftWindow<V, T, S> win;
      win.prime(s.c, il * W);
      put(il * W, win_body(s, il * W, win));
      for (int bi = il + 1; bi < ih; ++bi) {
        win.advance(s.c, bi * W);
        put(bi * W, win_body(s, bi * W, win));
      }
    }
    for (int bi = ih; bi < fh; ++bi) put(bi * W, vec_body(s, bi * W));
    if (fh * W < s.x1) edge(s.x1 - W);
  }
}

}  // namespace cats::wave
