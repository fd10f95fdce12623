#pragma once
// Constant-weight star stencil in 2D (the paper's "general 5-point stencil"
// for slope 1; 4S+1 points, 8S+1 flops for slope S).
//
// Weight layout: center w0, then per distance k=1..S the four axis weights
// (x-k, x+k, y-k, y+k), all distinct ("general" stencil: one multiply per
// point, matching the paper's 5 muls + 4 adds in 2D).
//
// Templated on the element type T (double by default, float for the fp32
// precision path — FloatStar2D in const2d_f32.hpp is ConstStar2D<S, float>).
// One stencil body serves both precisions via simd::vec_traits;
// element_bytes() feeds sizeof(T) into the Eq. 1/2 cache sizing so fp32
// tiles get twice the points per cache byte.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/stencil.hpp"  // WaveStage
#include "grid/grid2d.hpp"
#include "simd/vecd.hpp"
#include "threads/first_touch.hpp"
#include "wave/temporal_vec.hpp"

namespace cats {

template <int S, class T = double>
class ConstStar2D {
  static_assert(S >= 1 && S <= 4);
  // Any element type with a simd::vec_traits mapping is admissible: double,
  // float, and the footprint analyzer's recording elements
  // (src/analysis/record.hpp).
  static_assert(requires { typename simd::vec_traits<T>::Vec; });

 public:
  static constexpr int kPoints = 4 * S + 1;
  /// TV chain body evaluates the identical operation tree as the plain path
  /// (see core/stencil.hpp kernel_tv_bit_exact).
  static constexpr bool tv_bit_exact = true;

  struct Weights {
    T center = 0;
    std::array<T, S> xm{}, xp{}, ym{}, yp{};
  };

  ConstStar2D(int width, int height, const Weights& w)
      : w_(w), buf_{Grid2D<T>(width, height, S, kDeferFirstTouch),
                    Grid2D<T>(width, height, S, kDeferFirstTouch)} {}

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int slope() const { return S; }
  double flops_per_point() const { return 8.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }
  /// Bytes per stored element — parameterizes Eq. 1/2 tile sizing (E in the
  /// paper's parameter list): 8 for double, 4 for float.
  double element_bytes() const { return static_cast<double>(sizeof(T)); }
  std::string tune_id() const {
    if constexpr (std::is_same_v<T, float>) {
      return "const2d_f32/s" + std::to_string(S);
    } else {
      return "const2d/s" + std::to_string(S);
    }
  }

  /// Set initial interior values u(x,y,t=0) and constant boundary `bnd`.
  template <class F>
  void init(F&& f, T bnd = 0) {
    buf_[0].fill(bnd);
    buf_[1].fill(bnd);
    buf_[0].fill_interior(f);
  }

  /// init() with NUMA-aware placement: both buffers are first-touched in
  /// parallel with the same row-slab partition and pinning policy the
  /// schemes use (threads/first_touch.hpp), then seeded with f.
  template <class F>
  void parallel_init(const RunOptions& opt, F&& f, T bnd = 0) {
    const int W = width();
    first_touch_slabs(
        height(), S, opt.threads, opt.affinity,
        [&](int, int y0, int y1) {
          buf_[0].fill_rows(y0, y1, bnd);
          buf_[1].fill_rows(y0, y1, bnd);
          for (int y = std::max(y0, 0); y < std::min(y1, height()); ++y)
            for (int x = 0; x < W; ++x) buf_[0].at(x, y) = f(x, y);
        },
        opt.pin_cpus);
  }

  /// Leading-edge hint (see kernel_has_prefetch_front): start `lines` cache
  /// lines of the source row the wavefront sweeps next; the hardware
  /// prefetcher continues the stream.
  void prefetch_front(int t, int p, int lines) const {
    const Grid2D<T>& src = buf_[(t - 1) & 1];
    const T* r = src.row(std::min(p + S, height() - 1 + S));
    constexpr int kPerLine = static_cast<int>(64 / sizeof(T));
    for (int i = 0; i < lines; ++i) simd::prefetch_read(r + i * kPerLine);
  }

  const Grid2D<T>& grid_at(int t) const { return buf_[t & 1]; }
  Grid2D<T>& grid_at(int t) { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T_) const {
    const Grid2D<T>& g = grid_at(T_);
    out.clear();
    out.reserve(static_cast<std::size_t>(width()) * height());
    for (int y = 0; y < height(); ++y)
      for (int x = 0; x < width(); ++x)
        out.push_back(static_cast<double>(g.at(x, y)));
  }

  void process_row(int t, int y, int x0, int x1) {
    const int x = span<Vec>(t, y, x0, x1);
    span<Sc>(t, y, x, x1);
  }

  void process_row_scalar(int t, int y, int x0, int x1) {
    span<Sc>(t, y, x0, x1);
  }

  /// Register-tiled temporal micro-kernel (src/wave): sweep n <= 4 rows at
  /// consecutive timesteps in x-staggered lockstep. Weights are broadcast
  /// and row pointers resolved once for the whole group; the chunked
  /// diagonal order below keeps stage g at least one chunk (>= S points)
  /// ahead of stage g+1, which covers both the flow dependence (stage g+1
  /// reads stage g's row at x +- S) and the WAR hazard (stage g+1 overwrites
  /// the t-1 parity row that stage g still reads) — see
  /// wave/microkernel.hpp for the stagger proof. Bit-exact with n separate
  /// process_row calls: every point sees the identical operation tree.
  void process_stages(const WaveStage* st, int n) {
    using V = Vec;
    // Chunk width: several vectors (amortizes the stage switch), and always
    // >= S so the diagonal stagger satisfies the slope-S dependences.
    constexpr int kChunk =
        kWaveChunkVecs * V::width >= S
            ? kWaveChunkVecs * V::width
            : ((S + V::width - 1) / V::width) * V::width;
    Stage sg[kMaxStages];
    int base = st[0].x0;
    int hi = st[0].x1;
    resolve_stages(st, n, sg, base, hi);
    const V wc = V::broadcast(w_.center);
    V wxm[S], wxp[S], wym[S], wyp[S];
    broadcast_weights<V>(wxm, wxp, wym, wyp);
    const int chunks = (hi - base + kChunk - 1) / kChunk;
    for (int j = 0; j < chunks + n - 1; ++j) {
      for (int g = 0; g < n; ++g) {
        const int ci = j - g;
        if (ci < 0 || ci >= chunks) continue;
        const Stage& s = sg[g];
        const int a = std::max(s.x0, base + ci * kChunk);
        const int b = std::min(s.x1, base + (ci + 1) * kChunk);
        if (a >= b) continue;
        stage_chunk(s, a, b, wc, wxm, wxp, wym, wyp);
      }
    }
  }

  /// Temporally-vectorized chain body (wave/temporal_vec.hpp): the same n
  /// fused timesteps, but interior vectors feed every center-row operand
  /// from a sliding register window — one aligned load + shuffles per
  /// vector instead of 2S+1 overlapping unaligned reloads. Identical
  /// operation tree per point as process_stages, hence bit-exact
  /// (tv_bit_exact).
  void process_stages_tv(const WaveStage* st, int n) {
    using V = Vec;
    Stage sg[kMaxStages];
    int base = st[0].x0;
    int hi = st[0].x1;
    resolve_stages(st, n, sg, base, hi);
    const V wc = V::broadcast(w_.center);
    V wxm[S], wxp[S], wym[S], wyp[S];
    broadcast_weights<V>(wxm, wxp, wym, wyp);
    auto win_body = [&](const Stage& s, int x, const auto& win) {
      V acc = wc * win.template get<0>();
      [&]<std::size_t... K>(std::index_sequence<K...>) {
        ((acc = V::fma(wxm[K], win.template get<-(static_cast<int>(K) + 1)>(),
                       acc),
          acc = V::fma(wxp[K], win.template get<static_cast<int>(K) + 1>(),
                       acc),
          acc = V::fma(wym[K], V::load(s.rm[K] + x), acc),
          acc = V::fma(wyp[K], V::load(s.rp[K] + x), acc)),
         ...);
      }(std::make_index_sequence<S>{});
      return acc;
    };
    auto vec_body = [&](const Stage& s, int x) {
      V acc = wc * V::load(s.c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(wxm[k], V::load(s.c + x - (k + 1)), acc);
        acc = V::fma(wxp[k], V::load(s.c + x + (k + 1)), acc);
        acc = V::fma(wym[k], V::load(s.rm[k] + x), acc);
        acc = V::fma(wyp[k], V::load(s.rp[k] + x), acc);
      }
      return acc;
    };
    auto sc_body = [&](const Stage& s, int a, int b) { scalar_span(s, a, b); };
    wave::run_stages_tv<S, V, T>(sg, n, win_body, vec_body, sc_body);
  }

 private:
  static constexpr int kMaxStages = 4;
  using Vec = typename simd::vec_traits<T>::Vec;
  using Sc = typename simd::vec_traits<T>::Scalar;

  struct Stage {
    const T* c;
    T* o;
    const T* rm[S];
    const T* rp[S];
    int x0, x1;
  };

  void resolve_stages(const WaveStage* st, int n, Stage* sg, int& base,
                      int& hi) {
    for (int g = 0; g < n; ++g) {
      const Grid2D<T>& src = buf_[(st[g].t - 1) & 1];
      Grid2D<T>& dst = buf_[st[g].t & 1];
      Stage& s = sg[g];
      s.c = src.row(st[g].y);
      s.o = dst.row(st[g].y);
      for (int k = 0; k < S; ++k) {
        s.rm[k] = src.row(st[g].y - (k + 1));
        s.rp[k] = src.row(st[g].y + (k + 1));
      }
      s.x0 = st[g].x0;
      s.x1 = st[g].x1;
      base = std::min(base, st[g].x0);
      hi = std::max(hi, st[g].x1);
    }
  }

  template <class V>
  void broadcast_weights(V* wxm, V* wxp, V* wym, V* wyp) const {
    for (int k = 0; k < S; ++k) {
      wxm[k] = V::broadcast(w_.xm[static_cast<std::size_t>(k)]);
      wxp[k] = V::broadcast(w_.xp[static_cast<std::size_t>(k)]);
      wym[k] = V::broadcast(w_.ym[static_cast<std::size_t>(k)]);
      wyp[k] = V::broadcast(w_.yp[static_cast<std::size_t>(k)]);
    }
  }

  /// Scalar points [a, b) of one stage.
  void scalar_span(const Stage& s, int a, int b) {
    const Sc sc = Sc::broadcast(w_.center);
    for (int x = a; x < b; ++x) {
      Sc acc = sc * Sc::load(s.c + x);
      for (int k = 0; k < S; ++k) {
        const auto i = static_cast<std::size_t>(k);
        acc = Sc::fma(Sc::broadcast(w_.xm[i]), Sc::load(s.c + x - (k + 1)), acc);
        acc = Sc::fma(Sc::broadcast(w_.xp[i]), Sc::load(s.c + x + (k + 1)), acc);
        acc = Sc::fma(Sc::broadcast(w_.ym[i]), Sc::load(s.rm[k] + x), acc);
        acc = Sc::fma(Sc::broadcast(w_.yp[i]), Sc::load(s.rp[k] + x), acc);
      }
      acc.store(s.o + x);
    }
  }

  /// One x-chunk of one stage: the vector body of span<Vec> with hoisted
  /// weights, plus the scalar tail for the chunk's ragged end.
  void stage_chunk(const Stage& s, int a, int b, Vec wc, const Vec* wxm,
                   const Vec* wxp, const Vec* wym, const Vec* wyp) {
    using V = Vec;
    int x = a;
    for (; x + V::width <= b; x += V::width) {
      V acc = wc * V::load(s.c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(wxm[k], V::load(s.c + x - (k + 1)), acc);
        acc = V::fma(wxp[k], V::load(s.c + x + (k + 1)), acc);
        acc = V::fma(wym[k], V::load(s.rm[k] + x), acc);
        acc = V::fma(wyp[k], V::load(s.rp[k] + x), acc);
      }
      acc.store(s.o + x);
    }
    scalar_span(s, x, b);
  }

  /// Process x in [x0, x1) in V-width steps; returns the first unprocessed x.
  template <class V>
  int span(int t, int y, int x0, int x1) {
    const Grid2D<T>& src = buf_[(t - 1) & 1];
    Grid2D<T>& dst = buf_[t & 1];
    const T* c = src.row(y);
    T* o = dst.row(y);
    const T* rm[S];
    const T* rp[S];
    for (int k = 0; k < S; ++k) {
      rm[k] = src.row(y - (k + 1));
      rp[k] = src.row(y + (k + 1));
    }
    const V wc = V::broadcast(w_.center);
    V wxm[S], wxp[S], wym[S], wyp[S];
    broadcast_weights<V>(wxm, wxp, wym, wyp);
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = wc * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(wxm[k], V::load(c + x - (k + 1)), acc);
        acc = V::fma(wxp[k], V::load(c + x + (k + 1)), acc);
        acc = V::fma(wym[k], V::load(rm[k] + x), acc);
        acc = V::fma(wyp[k], V::load(rp[k] + x), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Weights w_;
  Grid2D<T> buf_[2];
};

/// Standard heat-equation-flavored weights for examples and tests.
template <int S, class T = double>
typename ConstStar2D<S, T>::Weights default_star2d_weights() {
  typename ConstStar2D<S, T>::Weights w;
  w.center = static_cast<T>(0.5);
  for (int k = 0; k < S; ++k) {
    const double f = 0.5 / (4 * S) * (k == 0 ? 1.2 : 0.8);
    const auto i = static_cast<std::size_t>(k);
    // Slightly asymmetric so tests catch transposed/reflected indexing bugs.
    w.xm[i] = static_cast<T>(f * 1.01);
    w.xp[i] = static_cast<T>(f * 0.99);
    w.ym[i] = static_cast<T>(f * 1.02);
    w.yp[i] = static_cast<T>(f * 0.98);
  }
  return w;
}

}  // namespace cats
