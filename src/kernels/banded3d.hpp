#pragma once
// Variable-coefficient star stencil in 3D = banded-matrix vector product
// with NS = 6S+1 bands (7 bands for slope 1 — the paper's Figs. 11/12).
//
// Templated on the element type T like ConstStar3D: one stencil body serves
// fp64, fp32 and the footprint analyzer's recording elements via
// simd::vec_traits (src/analysis/record.hpp).

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "grid/grid3d.hpp"
#include "simd/vecd.hpp"
#include "threads/first_touch.hpp"
#include "wave/temporal_vec.hpp"

namespace cats {

template <int S, class T = double>
class Banded3D {
  static_assert(S >= 1 && S <= 4);
  // Any element type with a simd::vec_traits mapping is admissible.
  static_assert(requires { typename simd::vec_traits<T>::Vec; });

 public:
  static constexpr int kBands = 6 * S + 1;  // NS

  /// Engine-side temporal fusion is legal: value reads lie in the slope-S
  /// box at t-1 and band reads are time-invariant (wave/microkernel.hpp).
  static constexpr bool wave_fusable = true;
  /// The TV row body evaluates the identical operation tree as process_row
  /// (coefficients load same-x; only the value center row is shuffle-fed).
  static constexpr bool tv_bit_exact = true;

  Banded3D(int width, int height, int depth)
      : buf_{Grid3D<T>(width, height, depth, S, kDeferFirstTouch),
             Grid3D<T>(width, height, depth, S, kDeferFirstTouch)} {
    bands_.reserve(kBands);
    for (int b = 0; b < kBands; ++b)
      bands_.emplace_back(width, height, depth, S);
  }

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int depth() const { return buf_[0].depth(); }
  int slope() const { return S; }
  double flops_per_point() const { return 12.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return kBands; }
  /// Bytes per stored element — parameterizes Eq. 1/2 tile sizing.
  double element_bytes() const { return static_cast<double>(sizeof(T)); }
  std::string tune_id() const {
    if constexpr (std::is_same_v<T, float>) {
      return "banded3d_f32/s" + std::to_string(S);
    } else {
      return "banded3d/s" + std::to_string(S);
    }
  }

  /// Band order: 0 = center, then per k=1..S: x-k, x+k, y-k, y+k, z-k, z+k.
  Grid3D<T>& band(int b) { return bands_[static_cast<std::size_t>(b)]; }

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
    const int W = width(), H = height();
    first_touch_slabs(depth(), S, opt.threads, opt.affinity,
                      [&](int, int z0, int z1) {
                        buf_[0].fill_slabs(z0, z1, bnd);
                        buf_[1].fill_slabs(z0, z1, bnd);
                        for (int z = std::max(z0, 0);
                             z < std::min(z1, depth()); ++z)
                          for (int y = 0; y < H; ++y)
                            for (int x = 0; x < W; ++x)
                              buf_[0].at(x, y, z) = f(x, y, z);
                      });
  }

  /// Leading-edge hint: `lines` cache lines of the next source plane plus
  /// its center-band coefficients.
  void prefetch_front(int t, int p, int lines) const {
    const int z = std::min(p + S, depth() - 1 + S);
    const T* r = buf_[(t - 1) & 1].row(0, z);
    const T* b = bands_[0].row(0, z);
    constexpr int kPerLine = static_cast<int>(64 / sizeof(T));
    for (int i = 0; i < lines; ++i) {
      simd::prefetch_read(r + i * kPerLine);
      simd::prefetch_read(b + i * kPerLine);
    }
  }

  template <class G>
  void init_bands(G&& g) {
    for (int b = 0; b < kBands; ++b)
      bands_[static_cast<std::size_t>(b)].fill_interior(
          [&](int x, int y, int z) { return g(b, x, y, z); });
  }

  const Grid3D<T>& grid_at(int t) const { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T_) const {
    const Grid3D<T>& g = grid_at(T_);
    out.clear();
    for (int z = 0; z < depth(); ++z)
      for (int y = 0; y < height(); ++y)
        for (int x = 0; x < width(); ++x)
          out.push_back(static_cast<double>(g.at(x, y, z)));
  }

  void process_row(int t, int y, int z, int x0, int x1) {
    const int x = span<Vec>(t, y, z, x0, x1);
    span<Sc>(t, y, z, x, x1);
  }

  void process_row_scalar(int t, int y, int z, int x0, int x1) {
    span<Sc>(t, y, z, x0, x1);
  }

  /// Temporally-vectorized row body (see ConstStar3D::process_row_tv): the
  /// value center row is fed from a sliding register window; coefficient
  /// bands and the y/z neighbor rows load same-x. Identical operation tree
  /// per point as process_row (tv_bit_exact).
  void process_row_tv(int t, int y, int z, int x0, int x1) {
    using V = Vec;
    constexpr int W = V::width;
    constexpr int Q = (S + W - 1) / W;
    const Grid3D<T>& src = buf_[(t - 1) & 1];
    Grid3D<T>& dst = buf_[t & 1];
    const T* c = src.row(y, z);
    T* o = dst.row(y, z);
    const T *rym[S], *ryp[S], *rzm[S], *rzp[S];
    const T* bc = bands_[0].row(y, z);
    const T *bxm[S], *bxp[S], *bym[S], *byp[S], *bzm[S], *bzp[S];
    for (int k = 0; k < S; ++k) {
      rym[k] = src.row(y - (k + 1), z);
      ryp[k] = src.row(y + (k + 1), z);
      rzm[k] = src.row(y, z - (k + 1));
      rzp[k] = src.row(y, z + (k + 1));
      const std::size_t base = static_cast<std::size_t>(6 * k);
      bxm[k] = bands_[base + 1].row(y, z);
      bxp[k] = bands_[base + 2].row(y, z);
      bym[k] = bands_[base + 3].row(y, z);
      byp[k] = bands_[base + 4].row(y, z);
      bzm[k] = bands_[base + 5].row(y, z);
      bzp[k] = bands_[base + 6].row(y, z);
    }
    auto emit = [&](V acc, int x) { acc.store(o + x); };
    auto plain = [&](int x) {
      V acc = V::load(bc + x) * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(V::load(bxm[k] + x), V::load(c + x - (k + 1)), acc);
        acc = V::fma(V::load(bxp[k] + x), V::load(c + x + (k + 1)), acc);
        acc = V::fma(V::load(bym[k] + x), V::load(rym[k] + x), acc);
        acc = V::fma(V::load(byp[k] + x), V::load(ryp[k] + x), acc);
        acc = V::fma(V::load(bzm[k] + x), V::load(rzm[k] + x), acc);
        acc = V::fma(V::load(bzp[k] + x), V::load(rzp[k] + x), acc);
      }
      return acc;
    };
    wave::ShiftWindow<V, T, S> win;
    auto windowed = [&](int x) {
      V acc = V::load(bc + x) * win.template get<0>();
      [&]<std::size_t... K>(std::index_sequence<K...>) {
        ((acc = V::fma(V::load(bxm[K] + x),
                       win.template get<-(static_cast<int>(K) + 1)>(), acc),
          acc = V::fma(V::load(bxp[K] + x),
                       win.template get<static_cast<int>(K) + 1>(), acc),
          acc = V::fma(V::load(bym[K] + x), V::load(rym[K] + x), acc),
          acc = V::fma(V::load(byp[K] + x), V::load(ryp[K] + x), acc),
          acc = V::fma(V::load(bzm[K] + x), V::load(rzm[K] + x), acc),
          acc = V::fma(V::load(bzp[K] + x), V::load(rzp[K] + x), acc)),
         ...);
      }(std::make_index_sequence<S>{});
      return acc;
    };
    // Window legality: reads [x - Q*W, x + (Q+1)*W) within the plain body's
    // reach [x0 - S, x1 - 1 + S].
    const int lo = x0 + Q * W - S;
    const int hi = x1 + S - (Q + 1) * W;
    int x = x0;
    for (; x + W <= x1 && (x < lo || x > hi); x += W) emit(plain(x), x);
    if (x + W <= x1 && x >= lo && x <= hi) {
      win.prime(c, x);
      emit(windowed(x), x);
      x += W;
      for (; x + W <= x1 && x <= hi; x += W) {
        win.advance(c, x);
        emit(windowed(x), x);
      }
    }
    for (; x + W <= x1; x += W) emit(plain(x), x);
    span<Sc>(t, y, z, x, x1);
  }

 private:
  using Vec = typename simd::vec_traits<T>::Vec;
  using Sc = typename simd::vec_traits<T>::Scalar;

  template <class V>
  int span(int t, int y, int z, int x0, int x1) {
    const Grid3D<T>& src = buf_[(t - 1) & 1];
    Grid3D<T>& dst = buf_[t & 1];
    const T* c = src.row(y, z);
    T* o = dst.row(y, z);
    const T *rym[S], *ryp[S], *rzm[S], *rzp[S];
    const T* bc = bands_[0].row(y, z);
    const T *bxm[S], *bxp[S], *bym[S], *byp[S], *bzm[S], *bzp[S];
    for (int k = 0; k < S; ++k) {
      rym[k] = src.row(y - (k + 1), z);
      ryp[k] = src.row(y + (k + 1), z);
      rzm[k] = src.row(y, z - (k + 1));
      rzp[k] = src.row(y, z + (k + 1));
      const std::size_t base = static_cast<std::size_t>(6 * k);
      bxm[k] = bands_[base + 1].row(y, z);
      bxp[k] = bands_[base + 2].row(y, z);
      bym[k] = bands_[base + 3].row(y, z);
      byp[k] = bands_[base + 4].row(y, z);
      bzm[k] = bands_[base + 5].row(y, z);
      bzp[k] = bands_[base + 6].row(y, z);
    }
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = V::load(bc + x) * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(V::load(bxm[k] + x), V::load(c + x - (k + 1)), acc);
        acc = V::fma(V::load(bxp[k] + x), V::load(c + x + (k + 1)), acc);
        acc = V::fma(V::load(bym[k] + x), V::load(rym[k] + x), acc);
        acc = V::fma(V::load(byp[k] + x), V::load(ryp[k] + x), acc);
        acc = V::fma(V::load(bzm[k] + x), V::load(rzm[k] + x), acc);
        acc = V::fma(V::load(bzp[k] + x), V::load(rzp[k] + x), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Grid3D<T> buf_[2];
  std::vector<Grid3D<T>> bands_;
};

}  // namespace cats
