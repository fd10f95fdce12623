#pragma once
// Symbolic footprint analyzer (DESIGN.md §15): drive the *real* wave engine
// (wave/engine.hpp walkers, the production chain/TV dispatch) over the
// *real* emitted TilePlans with kernels instantiated on recording element
// types (analysis/record.hpp), and check every recorded load/store address
// online against what the plan says the kernel may touch:
//
//  * halo containment — a store lands exactly in the slab's row segment of
//    the timestep-parity destination buffer; a load stays inside the
//    slope-S star reach of some active stage (center row [x0-S, x1-1+S],
//    off-axis rows/planes [x0, x1), coefficient bands same-row) and inside
//    the grid's legal ghost range;
//  * alignment — every load_aligned / store_aligned is naturally
//    vector-aligned;
//  * write versioning — each element carries the timestep of its last
//    write; a load of timestep-t data must observe version t-1 (catches
//    both stale reads and WAR violations of the fused-chain stagger,
//    end-to-end through the engine's group building), and a store must
//    overwrite the t-2 parity value (or re-store its own t value — the TV
//    ragged-edge vectors intentionally rewrite identical values);
//  * buffer-parity non-aliasing — loads resolve only against the (t-1)&1
//    buffer, stores only against t&1, and coefficient bands are
//    read-only.
//
// Cross-tile ordering (who waits for whom) is the plan verifier's theorem
// (plan/verify.hpp); this analyzer drives tiles sequentially in a
// sync-edge-respecting topological order and checks what the verifier
// cannot see: the actual kernel/engine address streams between those sync
// points.

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/record.hpp"
#include "core/options.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "plan/plan.hpp"
#include "wave/engine.hpp"

namespace cats {
namespace analysis {

struct FpDiag {
  std::string message;
};

/// One certified configuration's result (see footprint_sweep).
struct FpReport {
  std::string config;
  std::vector<FpDiag> diags;
  long long loads = 0;
  long long stores = 0;
  bool ok() const { return diags.empty(); }
};

enum class GridRole : std::uint8_t { State, Band };

/// Layout descriptor of one registered grid (recovered from the grid's own
/// accessors, so the address->coordinate map is the production one).
struct GridView {
  const void* base = nullptr;
  std::size_t total_elems = 0;
  std::size_t pitch = 0;  ///< elements per storage row
  std::size_t slice = 0;  ///< elements per z-slice (0 for 2D grids)
  std::size_t lead = 0;   ///< elements before interior x=0 in each row
  int w = 0, h = 0, d = 1, ghost = 0;
  int elem_bytes = 0;
  int dims = 2;
  GridRole role = GridRole::State;
  int parity = 0;  ///< double-buffer parity (t & 1) this grid holds
  std::string name;
};

/// One active kernel-call stage: the row segment some process_row* /
/// process_stages* call is entitled to compute. 2D stages use z = 0.
struct FpStage {
  int t = 0;
  int y = 0;
  int z = 0;
  int x0 = 0, x1 = 0;
};

class FootprintChecker {
 public:
  FootprintChecker(int dims, int slope) : dims_(dims), slope_(slope) {}

  template <class T>
  void add_state_grid_2d(const Grid2D<T>& g, int parity, const char* name) {
    GridView v;
    v.base = g.data();
    v.total_elems = g.size();
    v.pitch = g.pitch();
    v.slice = 0;
    v.lead = static_cast<std::size_t>(g.row(0) - g.data()) -
             static_cast<std::size_t>(g.ghost()) * g.pitch();
    v.w = g.width();
    v.h = g.height();
    v.d = 1;
    v.ghost = g.ghost();
    v.elem_bytes = static_cast<int>(sizeof(T));
    v.dims = 2;
    v.role = GridRole::State;
    v.parity = parity;
    v.name = name;
    add_grid(v);
  }

  template <class T>
  void add_band_grid_2d(const Grid2D<T>& g, int band, const char* family) {
    GridView v;
    v.base = g.data();
    v.total_elems = g.size();
    v.pitch = g.pitch();
    v.slice = 0;
    v.lead = static_cast<std::size_t>(g.row(0) - g.data()) -
             static_cast<std::size_t>(g.ghost()) * g.pitch();
    v.w = g.width();
    v.h = g.height();
    v.d = 1;
    v.ghost = g.ghost();
    v.elem_bytes = static_cast<int>(sizeof(T));
    v.dims = 2;
    v.role = GridRole::Band;
    v.name = std::string(family) + "/band" + std::to_string(band);
    add_grid(v);
  }

  template <class T>
  void add_state_grid_3d(const Grid3D<T>& g, int parity, const char* name) {
    GridView v;
    v.base = g.data();
    v.total_elems = g.size();
    v.pitch = g.pitch();
    v.slice = g.slice();
    v.lead = static_cast<std::size_t>(g.row(0, 0) - g.data()) -
             static_cast<std::size_t>(g.ghost()) * g.slice() -
             static_cast<std::size_t>(g.ghost()) * g.pitch();
    v.w = g.width();
    v.h = g.height();
    v.d = g.depth();
    v.ghost = g.ghost();
    v.elem_bytes = static_cast<int>(sizeof(T));
    v.dims = 3;
    v.role = GridRole::State;
    v.parity = parity;
    v.name = name;
    add_grid(v);
  }

  template <class T>
  void add_band_grid_3d(const Grid3D<T>& g, int band, const char* family) {
    GridView v;
    v.base = g.data();
    v.total_elems = g.size();
    v.pitch = g.pitch();
    v.slice = g.slice();
    v.lead = static_cast<std::size_t>(g.row(0, 0) - g.data()) -
             static_cast<std::size_t>(g.ghost()) * g.slice() -
             static_cast<std::size_t>(g.ghost()) * g.pitch();
    v.w = g.width();
    v.h = g.height();
    v.d = g.depth();
    v.ghost = g.ghost();
    v.elem_bytes = static_cast<int>(sizeof(T));
    v.dims = 3;
    v.role = GridRole::Band;
    v.name = std::string(family) + "/band" + std::to_string(band);
    add_grid(v);
  }

  /// Install this checker as the thread's access sink. Uninstall before it
  /// goes out of scope.
  void install() {
    g_access_hook.ctx = this;
    g_access_hook.fn = &FootprintChecker::trampoline;
  }
  static void uninstall() {
    g_access_hook.ctx = nullptr;
    g_access_hook.fn = nullptr;
  }

  void begin_call(const FpStage* st, int n) { stages_.assign(st, st + n); }
  void end_call() { stages_.clear(); }

  const std::vector<FpDiag>& diags() const { return diags_; }
  long long loads() const { return loads_; }
  long long stores() const { return stores_; }

  void add_diag(std::string msg) {
    if (diags_.size() < kMaxDiags) diags_.push_back({std::move(msg)});
  }

  void on_access(const void* p, int bytes, AccessKind k) {
    const bool is_store =
        k == AccessKind::Store || k == AccessKind::StoreAligned;
    if (is_store) {
      ++stores_;
    } else {
      ++loads_;
    }
    if (diags_.size() >= kMaxDiags) return;

    const GridView* gv = nullptr;
    std::size_t off = 0;
    if (!resolve(p, &gv, &off)) {
      add_diag(fmt("%s of %d bytes at %p hits no registered grid",
                   kind_name(k), bytes, p));
      return;
    }
    const int elems = bytes / gv->elem_bytes;
    int x = 0, y = 0, z = 0;
    to_coords(*gv, off, &x, &y, &z);

    // Required-alignment kinds must be naturally aligned to the full span.
    if ((k == AccessKind::LoadAligned || k == AccessKind::StoreAligned) &&
        elems > 1 &&
        (reinterpret_cast<std::uintptr_t>(p) &
         (static_cast<std::uintptr_t>(bytes) - 1)) != 0) {
      add_diag(fmt("misaligned %s at %p (grid %s, x=%d y=%d z=%d, span %d "
                   "bytes): aligned access requires natural alignment%s",
                   kind_name(k), p, gv->name.c_str(), x, y, z, bytes,
                   stage_ctx().c_str()));
      return;
    }

    // Legal ghost range of the grid itself.
    const int g = gv->ghost;
    if (x < -g || x + elems > gv->w + g || y < -g || y >= gv->h + g ||
        z < -g || z >= gv->d + g) {
      add_diag(fmt("%s outside legal ghost range: grid %s x=[%d,%d) y=%d "
                   "z=%d, legal x=[-%d,%d)%s",
                   kind_name(k), gv->name.c_str(), x, x + elems, y, z, g,
                   gv->w + g, stage_ctx().c_str()));
      return;
    }

    if (is_store) {
      check_store(*gv, off, x, y, z, elems, k);
    } else {
      check_load(*gv, off, x, y, z, elems, k);
    }
  }

 private:
  static constexpr std::size_t kMaxDiags = 32;

  static void trampoline(void* ctx, const void* p, int bytes, AccessKind k) {
    static_cast<FootprintChecker*>(ctx)->on_access(p, bytes, k);
  }

  static const char* kind_name(AccessKind k) {
    switch (k) {
      case AccessKind::Load: return "load";
      case AccessKind::LoadAligned: return "aligned load";
      case AccessKind::Store: return "store";
      case AccessKind::StoreAligned: return "aligned store";
    }
    return "?";
  }

  static std::string fmt(const char* f, ...)
      __attribute__((format(printf, 1, 2))) {
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
  }

  std::string stage_ctx() const {
    std::string s = "; active stages:";
    if (stages_.empty()) return s + " (none)";
    for (const FpStage& st : stages_) {
      s += fmt(" {t=%d y=%d z=%d x=[%d,%d)}", st.t, st.y, st.z, st.x0,
               st.x1);
    }
    return s;
  }

  void add_grid(GridView v) {
    version_.emplace_back(v.role == GridRole::State ? v.total_elems : 0, 0);
    grids_.push_back(std::move(v));
  }

  bool resolve(const void* p, const GridView** out, std::size_t* off) {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    for (std::size_t i = 0; i < grids_.size(); ++i) {
      const GridView& g = grids_[i];
      const auto b = reinterpret_cast<std::uintptr_t>(g.base);
      const std::uintptr_t sz =
          g.total_elems * static_cast<std::uintptr_t>(g.elem_bytes);
      if (a >= b && a < b + sz) {
        *out = &grids_[i];
        *off = (a - b) / static_cast<std::uintptr_t>(g.elem_bytes);
        grid_idx_ = i;
        return true;
      }
    }
    return false;
  }

  void to_coords(const GridView& g, std::size_t off, int* x, int* y,
                 int* z) const {
    std::size_t rem = off;
    if (g.dims == 3) {
      *z = static_cast<int>(rem / g.slice) - g.ghost;
      rem %= g.slice;
    } else {
      *z = 0;
    }
    *y = static_cast<int>(rem / g.pitch) - g.ghost;
    rem %= g.pitch;
    *x = static_cast<int>(rem) - static_cast<int>(g.lead);
  }

  bool interior(const GridView& g, int x, int y, int z) const {
    return x >= 0 && x < g.w && y >= 0 && y < g.h && z >= 0 && z < g.d;
  }

  void check_store(const GridView& g, std::size_t off, int x, int y, int z,
                   int elems, AccessKind k) {
    if (g.role == GridRole::Band) {
      add_diag(fmt("store to read-only coefficient band %s at x=%d y=%d "
                   "z=%d%s",
                   g.name.c_str(), x, y, z, stage_ctx().c_str()));
      return;
    }
    const FpStage* match = nullptr;
    for (const FpStage& st : stages_) {
      if (g.parity != (st.t & 1)) continue;
      if (y != st.y || z != st.z) continue;
      if (x < st.x0 || x + elems > st.x1) continue;
      match = &st;
    }
    if (match == nullptr) {
      add_diag(fmt("%s outside any stage's output segment: grid %s "
                   "(parity %d) x=[%d,%d) y=%d z=%d%s",
                   kind_name(k), g.name.c_str(), g.parity, x, x + elems, y, z,
                   stage_ctx().c_str()));
      return;
    }
    // Version update: the destination held the t-2 parity value (0 = the
    // initial condition), or t itself (the TV ragged-edge rewrite of an
    // identical value).
    const int t = match->t;
    std::vector<std::int32_t>& ver = version_[grid_idx_];
    const std::int32_t expect = t >= 2 ? t - 2 : 0;
    for (int i = 0; i < elems; ++i) {
      const std::int32_t old = ver[off + static_cast<std::size_t>(i)];
      if (old != expect && old != t) {
        add_diag(fmt("WAR/version violation on store: grid %s x=%d y=%d z=%d "
                     "holds t=%d data, stage t=%d expected t=%d (stagger "
                     "broken?)%s",
                     g.name.c_str(), x + i, y, z, old, t, expect,
                     stage_ctx().c_str()));
        return;
      }
      ver[off + static_cast<std::size_t>(i)] = t;
    }
  }

  void check_load(const GridView& g, std::size_t off, int x, int y, int z,
                  int elems, AccessKind k) {
    const int S = slope_;
    const FpStage* matches[8];
    int nm = 0;
    for (const FpStage& st : stages_) {
      if (nm == 8) break;
      if (g.role == GridRole::Band) {
        if (y == st.y && z == st.z && x >= st.x0 && x + elems <= st.x1) {
          matches[nm++] = &st;
        }
        continue;
      }
      if (g.parity != ((st.t - 1) & 1)) continue;
      const int dy = y - st.y;
      const int dz = z - st.z;
      if (dy == 0 && dz == 0) {
        // Center row: x reach extends S beyond the segment on both sides.
        if (x >= st.x0 - S && x + elems <= st.x1 + S) matches[nm++] = &st;
      } else if ((dz == 0 && dy >= -S && dy <= S) ||
                 (dy == 0 && dz >= -S && dz <= S)) {
        // Off-axis star arm: same x segment as the outputs.
        if (x >= st.x0 && x + elems <= st.x1) matches[nm++] = &st;
      }
    }
    if (nm == 0) {
      add_diag(fmt("halo violation: %s of grid %s (%s) x=[%d,%d) y=%d z=%d "
                   "outside the slope-%d reach of every active stage%s",
                   kind_name(k), g.name.c_str(),
                   g.role == GridRole::Band ? "band" : "state", x, x + elems,
                   y, z, S, stage_ctx().c_str()));
      return;
    }
    if (g.role == GridRole::Band) return;
    // Version check: interior elements must hold exactly the t-1 value of
    // some geometrically matching stage (ghost cells hold time-invariant
    // boundary data and are exempt).
    const std::vector<std::int32_t>& ver = version_[grid_idx_];
    for (int i = 0; i < elems; ++i) {
      if (!interior(g, x + i, y, z)) continue;
      const std::int32_t v = ver[off + static_cast<std::size_t>(i)];
      bool ok = false;
      for (int m = 0; m < nm; ++m) {
        if (v == matches[m]->t - 1) {
          ok = true;
          break;
        }
      }
      if (!ok) {
        add_diag(fmt("stale read: grid %s x=%d y=%d z=%d holds t=%d data; "
                     "no matching stage expects it (stage t-1 values "
                     "differ)%s",
                     g.name.c_str(), x + i, y, z, v, stage_ctx().c_str()));
        return;
      }
    }
  }

  int dims_;
  int slope_;
  std::vector<GridView> grids_;
  std::vector<std::vector<std::int32_t>> version_;
  std::size_t grid_idx_ = 0;  ///< set by resolve(), indexes version_
  std::vector<FpStage> stages_;
  std::vector<FpDiag> diags_;
  long long loads_ = 0;
  long long stores_ = 0;
};

/// RAII stage context for one kernel call.
class FpCallScope {
 public:
  FpCallScope(FootprintChecker& c, const FpStage* st, int n) : c_(&c) {
    c_->begin_call(st, n);
  }
  ~FpCallScope() { c_->end_call(); }
  FpCallScope(const FpCallScope&) = delete;
  FpCallScope& operator=(const FpCallScope&) = delete;

 private:
  FootprintChecker* c_;
};

/// Transparent 2D kernel wrapper: forwards every engine-facing entry point
/// to the recording-instantiated kernel, bracketing each call with its
/// stage context so the checker can attribute every address. Requires the
/// full-featured kernel interface (process_row/process_stages/_tv) —
/// which all analyzed families provide.
template <class K>
class RecWrap2D {
 public:
  RecWrap2D(K& k, FootprintChecker& c) : k_(&k), c_(&c) {}

  void process_row(int t, int y, int x0, int x1) {
    const FpStage s{t, y, 0, x0, x1};
    FpCallScope scope(*c_, &s, 1);
    k_->process_row(t, y, x0, x1);
  }
  void process_row_scalar(int t, int y, int x0, int x1) {
    const FpStage s{t, y, 0, x0, x1};
    FpCallScope scope(*c_, &s, 1);
    k_->process_row_scalar(t, y, x0, x1);
  }
  void process_stages(const WaveStage* st, int n) {
    FpStage s[4];
    for (int i = 0; i < n; ++i) {
      s[i] = FpStage{st[i].t, st[i].y, 0, st[i].x0, st[i].x1};
    }
    FpCallScope scope(*c_, s, n);
    ++stages_calls;
    k_->process_stages(st, n);
  }
  void process_stages_tv(const WaveStage* st, int n) {
    FpStage s[4];
    for (int i = 0; i < n; ++i) {
      s[i] = FpStage{st[i].t, st[i].y, 0, st[i].x0, st[i].x1};
    }
    FpCallScope scope(*c_, s, n);
    ++tv_calls;
    k_->process_stages_tv(st, n);
  }

  long long stages_calls = 0;  ///< fused-group invocations observed
  long long tv_calls = 0;      ///< temporally-vectorized group invocations

 private:
  K* k_;
  FootprintChecker* c_;
};

/// Transparent 3D kernel wrapper (see RecWrap2D).
template <class K>
class RecWrap3D {
 public:
  static constexpr bool wave_fusable = true;  ///< engine-side fusion opt-in

  RecWrap3D(K& k, FootprintChecker& c) : k_(&k), c_(&c) {}

  void process_row(int t, int y, int z, int x0, int x1) {
    const FpStage s{t, y, z, x0, x1};
    FpCallScope scope(*c_, &s, 1);
    k_->process_row(t, y, z, x0, x1);
  }
  void process_row_scalar(int t, int y, int z, int x0, int x1) {
    const FpStage s{t, y, z, x0, x1};
    FpCallScope scope(*c_, &s, 1);
    k_->process_row_scalar(t, y, z, x0, x1);
  }
  void process_row_tv(int t, int y, int z, int x0, int x1) {
    const FpStage s{t, y, z, x0, x1};
    FpCallScope scope(*c_, &s, 1);
    ++tv_rows;
    k_->process_row_tv(t, y, z, x0, x1);
  }

  long long tv_rows = 0;  ///< temporally-vectorized row invocations

 private:
  K* k_;
  FootprintChecker* c_;
};

/// Sequential tile order respecting the plan's phases and sync edges
/// (Kahn; stable by tile index within a phase). The plan verifier proves
/// the edges sufficient for the parallel execution; any edge-respecting
/// sequential order therefore produces the dependence-legal address
/// streams this analyzer checks.
inline std::vector<int> plan_topo_order(const plan_ir::TilePlan& p) {
  const int n = static_cast<int>(p.tiles.size());
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
  for (const plan_ir::SyncEdge& e : p.edges) {
    out[static_cast<std::size_t>(e.from)].push_back(e.to);
    ++indeg[static_cast<std::size_t>(e.to)];
  }
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(order.size()) < n) {
    int pick = -1;
    for (int i = 0; i < n; ++i) {
      if (done[static_cast<std::size_t>(i)] != 0 ||
          indeg[static_cast<std::size_t>(i)] != 0) {
        continue;
      }
      if (pick == -1 ||
          p.tiles[static_cast<std::size_t>(i)].phase <
              p.tiles[static_cast<std::size_t>(pick)].phase) {
        pick = i;
      }
    }
    if (pick == -1) break;  // cycle: the verifier's problem, not ours
    done[static_cast<std::size_t>(pick)] = 1;
    order.push_back(pick);
    for (int to : out[static_cast<std::size_t>(pick)]) {
      --indeg[static_cast<std::size_t>(to)];
    }
  }
  return order;
}

/// Drive one 2D recording kernel through the production wave walker over
/// every tile of the plan, in topological order.
template <class RecK>
void drive_plan_2d(RecK& rk, const plan_ir::TilePlan& p,
                   const RunOptions& opt, FootprintChecker& chk) {
  wave::WaveWalker2D<false, RecK> walker(rk, p, opt);
  chk.install();
  for (int ti : plan_topo_order(p)) {
    plan_ir::for_each_slab(p, p.tiles[static_cast<std::size_t>(ti)],
                           [&](const plan_ir::Slab& sl) { walker(sl); });
    walker.end_tile();
  }
  FootprintChecker::uninstall();
}

/// 3D twin of drive_plan_2d.
template <class RecK>
void drive_plan_3d(RecK& rk, const plan_ir::TilePlan& p,
                   const RunOptions& opt, FootprintChecker& chk) {
  wave::WaveWalker3D<false, RecK> walker(rk, p, opt);
  chk.install();
  for (int ti : plan_topo_order(p)) {
    plan_ir::for_each_slab(p, p.tiles[static_cast<std::size_t>(ti)],
                           [&](const plan_ir::Slab& sl) { walker(sl); });
    walker.end_tile();
  }
  FootprintChecker::uninstall();
}

/// The CI matrix: every kernel family x scheme x {unroll_t 0..4} x
/// {temporal_vec} (x {fp64, fp32} for the const2d family), each driven over
/// a small emitted plan and certified clean. Exercise assertions (TV groups
/// formed when enabled) are reported as diagnostics too — a vacuous
/// certification is a failure.
std::vector<FpReport> footprint_sweep();

}  // namespace analysis
}  // namespace cats
