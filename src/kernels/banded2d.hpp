#pragma once
// Variable-coefficient star stencil in 2D = banded-matrix vector product
// (Section III-B). Each of the NS = 4S+1 stencil positions has its own
// coefficient field (structure-of-arrays, so coefficient loads are
// unit-stride SIMD like the values). The matrix entries for the current
// wavefront must reside in cache too, so CS is augmented by NS (the paper
// replaces CS by CS + NS in Eqs. 1-2) — extra_cache_doubles_per_point().
//
// Templated on the element type T like ConstStar2D: one stencil body serves
// fp64, fp32 and the footprint analyzer's recording elements via
// simd::vec_traits (src/analysis/record.hpp).

#include <algorithm>
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
class Banded2D {
  static_assert(S >= 1 && S <= 4);
  // Any element type with a simd::vec_traits mapping is admissible.
  static_assert(requires { typename simd::vec_traits<T>::Vec; });

 public:
  static constexpr int kBands = 4 * S + 1;  // NS
  /// The TV body evaluates the identical operation tree as the plain path
  /// (coefficients load same-x; only the value center row is shuffle-fed),
  /// so even the variable-coefficient kernel stays bit-exact.
  static constexpr bool tv_bit_exact = true;

  Banded2D(int width, int height)
      : buf_{Grid2D<T>(width, height, S, kDeferFirstTouch),
             Grid2D<T>(width, height, S, kDeferFirstTouch)} {
    bands_.reserve(kBands);
    for (int b = 0; b < kBands; ++b) bands_.emplace_back(width, height, S);
  }

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int slope() const { return S; }
  double flops_per_point() const { return 8.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return kBands; }
  /// Bytes per stored element — parameterizes Eq. 1/2 tile sizing.
  double element_bytes() const { return static_cast<double>(sizeof(T)); }
  std::string tune_id() const {
    if constexpr (std::is_same_v<T, float>) {
      return "banded2d_f32/s" + std::to_string(S);
    } else {
      return "banded2d/s" + std::to_string(S);
    }
  }

  /// Band order: 0 = center, then per k=1..S: x-k, x+k, y-k, y+k.
  Grid2D<T>& band(int b) { return bands_[static_cast<std::size_t>(b)]; }

  template <class F>
  void init(F&& f, T bnd = 0) {
    buf_[0].fill(bnd);
    buf_[1].fill(bnd);
    buf_[0].fill_interior(f);
  }

  /// init() with NUMA-aware placement (see threads/first_touch.hpp). Band
  /// coefficient grids are placed by init_bands (serial, read-shared).
  template <class F>
  void parallel_init(const RunOptions& opt, F&& f, T bnd = 0) {
    const int W = width();
    first_touch_slabs(height(), S, opt.threads, opt.affinity,
                      [&](int, int y0, int y1) {
                        buf_[0].fill_rows(y0, y1, bnd);
                        buf_[1].fill_rows(y0, y1, bnd);
                        for (int y = std::max(y0, 0);
                             y < std::min(y1, height()); ++y)
                          for (int x = 0; x < W; ++x)
                            buf_[0].at(x, y) = f(x, y);
                      });
  }

  /// Leading-edge hint: `lines` cache lines of the next source row plus its
  /// center-band coefficients (the matrix entries stream alongside the
  /// values).
  void prefetch_front(int t, int p, int lines) const {
    const int y = std::min(p + S, height() - 1 + S);
    const T* r = buf_[(t - 1) & 1].row(y);
    const T* b = bands_[0].row(std::min(y, height() - 1 + S));
    constexpr int kPerLine = static_cast<int>(64 / sizeof(T));
    for (int i = 0; i < lines; ++i) {
      simd::prefetch_read(r + i * kPerLine);
      simd::prefetch_read(b + i * kPerLine);
    }
  }

  /// g(b, x, y) -> coefficient of band b at row position (x, y).
  template <class G>
  void init_bands(G&& g) {
    for (int b = 0; b < kBands; ++b)
      bands_[static_cast<std::size_t>(b)].fill_interior(
          [&](int x, int y) { return g(b, x, y); });
  }

  const Grid2D<T>& grid_at(int t) const { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T_) const {
    const Grid2D<T>& g = grid_at(T_);
    out.clear();
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

  /// Register-tiled temporal micro-kernel (see ConstStar2D::process_stages
  /// for the stagger contract). Banded stages additionally resolve the NS
  /// coefficient-band row pointers once per group — the matrix entries are
  /// time-invariant, so every fused timestep reads the same band rows while
  /// they are hot.
  void process_stages(const WaveStage* st, int n) {
    Stage sg[4];
    int base = st[0].x0;
    int hi = st[0].x1;
    resolve_stages(st, n, sg, base, hi);
    using V = Vec;
    constexpr int kChunk =
        kWaveChunkVecs * V::width >= S
            ? kWaveChunkVecs * V::width
            : ((S + V::width - 1) / V::width) * V::width;
    const int chunks = (hi - base + kChunk - 1) / kChunk;
    for (int j = 0; j < chunks + n - 1; ++j) {
      for (int g = 0; g < n; ++g) {
        const int ci = j - g;
        if (ci < 0 || ci >= chunks) continue;
        const Stage& s = sg[g];
        const int a = std::max(s.x0, base + ci * kChunk);
        const int b = std::min(s.x1, base + (ci + 1) * kChunk);
        if (a >= b) continue;
        stage_chunk(s, a, b);
      }
    }
  }

  /// Temporally-vectorized chain body (wave/temporal_vec.hpp; see
  /// ConstStar2D::process_stages_tv). The value center row is fed from the
  /// sliding register window; every coefficient band loads same-x (unit
  /// stride, no shuffle needed). Identical operation tree per point as
  /// process_stages (tv_bit_exact).
  void process_stages_tv(const WaveStage* st, int n) {
    using V = Vec;
    Stage sg[4];
    int base = st[0].x0;
    int hi = st[0].x1;
    resolve_stages(st, n, sg, base, hi);
    auto win_body = [&](const Stage& s, int x, const auto& win) {
      V acc = V::load(s.bc + x) * win.template get<0>();
      [&]<std::size_t... K>(std::index_sequence<K...>) {
        ((acc = V::fma(V::load(s.bxm[K] + x),
                       win.template get<-(static_cast<int>(K) + 1)>(), acc),
          acc = V::fma(V::load(s.bxp[K] + x),
                       win.template get<static_cast<int>(K) + 1>(), acc),
          acc = V::fma(V::load(s.bym[K] + x), V::load(s.rm[K] + x), acc),
          acc = V::fma(V::load(s.byp[K] + x), V::load(s.rp[K] + x), acc)),
         ...);
      }(std::make_index_sequence<S>{});
      return acc;
    };
    auto vec_body = [&](const Stage& s, int x) {
      V acc = V::load(s.bc + x) * V::load(s.c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(V::load(s.bxm[k] + x), V::load(s.c + x - (k + 1)), acc);
        acc = V::fma(V::load(s.bxp[k] + x), V::load(s.c + x + (k + 1)), acc);
        acc = V::fma(V::load(s.bym[k] + x), V::load(s.rm[k] + x), acc);
        acc = V::fma(V::load(s.byp[k] + x), V::load(s.rp[k] + x), acc);
      }
      return acc;
    };
    auto sc_body = [&](const Stage& s, int a, int b) {
      for (int x = a; x < b; ++x) {
        Sc acc = Sc::load(s.bc + x) * Sc::load(s.c + x);
        for (int k = 0; k < S; ++k) {
          acc = Sc::fma(Sc::load(s.bxm[k] + x), Sc::load(s.c + x - (k + 1)),
                        acc);
          acc = Sc::fma(Sc::load(s.bxp[k] + x), Sc::load(s.c + x + (k + 1)),
                        acc);
          acc = Sc::fma(Sc::load(s.bym[k] + x), Sc::load(s.rm[k] + x), acc);
          acc = Sc::fma(Sc::load(s.byp[k] + x), Sc::load(s.rp[k] + x), acc);
        }
        acc.store(s.o + x);
      }
    };
    wave::run_stages_tv<S, V, T>(sg, n, win_body, vec_body, sc_body);
  }

 private:
  using Vec = typename simd::vec_traits<T>::Vec;
  using Sc = typename simd::vec_traits<T>::Scalar;

  struct Stage {
    const T* c;
    T* o;
    const T* rm[S];
    const T* rp[S];
    const T* bc;
    const T *bxm[S], *bxp[S], *bym[S], *byp[S];
    int x0, x1;
  };

  void resolve_stages(const WaveStage* st, int n, Stage* sg, int& base,
                      int& hi) {
    for (int g = 0; g < n; ++g) {
      const Grid2D<T>& src = buf_[(st[g].t - 1) & 1];
      Grid2D<T>& dst = buf_[st[g].t & 1];
      const int y = st[g].y;
      Stage& s = sg[g];
      s.c = src.row(y);
      s.o = dst.row(y);
      s.bc = bands_[0].row(y);
      for (int k = 0; k < S; ++k) {
        s.rm[k] = src.row(y - (k + 1));
        s.rp[k] = src.row(y + (k + 1));
        const std::size_t bb = static_cast<std::size_t>(4 * k);
        s.bxm[k] = bands_[bb + 1].row(y);
        s.bxp[k] = bands_[bb + 2].row(y);
        s.bym[k] = bands_[bb + 3].row(y);
        s.byp[k] = bands_[bb + 4].row(y);
      }
      s.x0 = st[g].x0;
      s.x1 = st[g].x1;
      base = std::min(base, st[g].x0);
      hi = std::max(hi, st[g].x1);
    }
  }

  /// One x-chunk of one stage: vector body then scalar tail. All operands
  /// are loads (the banded stencil broadcasts nothing).
  void stage_chunk(const Stage& s, int a, int b) {
    using V = Vec;
    int x = a;
    for (; x + V::width <= b; x += V::width) {
      V acc = V::load(s.bc + x) * V::load(s.c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(V::load(s.bxm[k] + x), V::load(s.c + x - (k + 1)), acc);
        acc = V::fma(V::load(s.bxp[k] + x), V::load(s.c + x + (k + 1)), acc);
        acc = V::fma(V::load(s.bym[k] + x), V::load(s.rm[k] + x), acc);
        acc = V::fma(V::load(s.byp[k] + x), V::load(s.rp[k] + x), acc);
      }
      acc.store(s.o + x);
    }
    for (; x < b; ++x) {
      Sc acc = Sc::load(s.bc + x) * Sc::load(s.c + x);
      for (int k = 0; k < S; ++k) {
        acc = Sc::fma(Sc::load(s.bxm[k] + x), Sc::load(s.c + x - (k + 1)), acc);
        acc = Sc::fma(Sc::load(s.bxp[k] + x), Sc::load(s.c + x + (k + 1)), acc);
        acc = Sc::fma(Sc::load(s.bym[k] + x), Sc::load(s.rm[k] + x), acc);
        acc = Sc::fma(Sc::load(s.byp[k] + x), Sc::load(s.rp[k] + x), acc);
      }
      acc.store(s.o + x);
    }
  }

  template <class V>
  int span(int t, int y, int x0, int x1) {
    const Grid2D<T>& src = buf_[(t - 1) & 1];
    Grid2D<T>& dst = buf_[t & 1];
    const T* c = src.row(y);
    T* o = dst.row(y);
    const T* rm[S];
    const T* rp[S];
    const T* bc = bands_[0].row(y);
    const T *bxm[S], *bxp[S], *bym[S], *byp[S];
    for (int k = 0; k < S; ++k) {
      rm[k] = src.row(y - (k + 1));
      rp[k] = src.row(y + (k + 1));
      const std::size_t base = static_cast<std::size_t>(4 * k);
      bxm[k] = bands_[base + 1].row(y);
      bxp[k] = bands_[base + 2].row(y);
      bym[k] = bands_[base + 3].row(y);
      byp[k] = bands_[base + 4].row(y);
    }
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = V::load(bc + x) * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(V::load(bxm[k] + x), V::load(c + x - (k + 1)), acc);
        acc = V::fma(V::load(bxp[k] + x), V::load(c + x + (k + 1)), acc);
        acc = V::fma(V::load(bym[k] + x), V::load(rm[k] + x), acc);
        acc = V::fma(V::load(byp[k] + x), V::load(rp[k] + x), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Grid2D<T> buf_[2];
  std::vector<Grid2D<T>> bands_;
};

}  // namespace cats
