#include "plan/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/selector.hpp"

namespace cats::plan_ir {

const char* diag_kind_name(DiagKind k) {
  switch (k) {
    case DiagKind::MalformedPlan: return "MalformedPlan";
    case DiagKind::OutOfDomain: return "OutOfDomain";
    case DiagKind::TileOverlap: return "TileOverlap";
    case DiagKind::CoverageGap: return "CoverageGap";
    case DiagKind::DepUncovered: return "DepUncovered";
    case DiagKind::StuckWait: return "StuckWait";
    case DiagKind::SyncCycle: return "SyncCycle";
    case DiagKind::WavefrontOverflow: return "WavefrontOverflow";
    case DiagKind::TzExceedsEq1: return "TzExceedsEq1";
    case DiagKind::BzExceedsEq2: return "BzExceedsEq2";
  }
  return "?";
}

std::string Diag::to_string() const {
  char buf[512];
  const auto ll = [](std::int64_t v) { return static_cast<long long>(v); };
  switch (kind) {
    case DiagKind::DepUncovered:
      std::snprintf(buf, sizeof buf,
                    "tile %d point (t=%d, %lld,%lld,%lld) depends on tile %d "
                    "point (t=%d, %lld,%lld,%lld) with no happens-before "
                    "order",
                    tile_a, t, ll(x), ll(y), ll(z), tile_b, t - 1, ll(nx),
                    ll(ny), ll(nz));
      break;
    case DiagKind::TileOverlap:
      std::snprintf(buf, sizeof buf,
                    "tiles %d and %d both compute (t=%d, %lld,%lld,%lld)",
                    tile_a, tile_b, t, ll(x), ll(y), ll(z));
      break;
    case DiagKind::CoverageGap:
      std::snprintf(buf, sizeof buf,
                    "timestep %d computes %lld of %lld domain cells", t,
                    ll(bytes), ll(limit));
      break;
    case DiagKind::OutOfDomain:
      std::snprintf(buf, sizeof buf,
                    "tile %d slab at t=%d reaches (%lld,%lld,%lld) outside "
                    "the domain",
                    tile_a, t, ll(x), ll(y), ll(z));
      break;
    case DiagKind::WavefrontOverflow:
      std::snprintf(buf, sizeof buf,
                    "tile %d wavefront working set %lld B exceeds cache %lld "
                    "B%s",
                    tile_a, ll(bytes), ll(limit),
                    warning ? " (selector clamp floor; advisory)" : "");
      break;
    case DiagKind::TzExceedsEq1:
      std::snprintf(buf, sizeof buf, "plan TZ=%lld exceeds Eq. 1 bound %lld",
                    ll(bytes), ll(limit));
      break;
    case DiagKind::BzExceedsEq2:
      std::snprintf(buf, sizeof buf,
                    "plan BZ/BX=%lld exceeds diamond sizing bound %lld",
                    ll(bytes), ll(limit));
      break;
    case DiagKind::StuckWait:
      std::snprintf(buf, sizeof buf, "tile %d wait on tile %d can never be "
                    "satisfied", tile_a, tile_b);
      break;
    case DiagKind::SyncCycle:
      std::snprintf(buf, sizeof buf,
                    "sync graph cycle (e.g. through tiles %d and %d)", tile_a,
                    tile_b);
      break;
    case DiagKind::MalformedPlan:
      std::snprintf(buf, sizeof buf, "malformed plan");
      break;
  }
  std::string out = std::string(diag_kind_name(kind)) + ": " + buf;
  if (!detail.empty()) out += " [" + detail + "]";
  return out;
}

std::size_t VerifyReport::errors() const {
  std::size_t c = 0;
  for (const Diag& d : diags) c += d.warning ? 0u : 1u;
  return c;
}

std::size_t VerifyReport::warnings() const {
  return diags.size() - errors();
}

std::string VerifyReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%lld tiles, %lld slabs, %lld edges, %lld dep pairs -> %zu "
                "error(s), %zu warning(s)%s",
                static_cast<long long>(stats.tiles),
                static_cast<long long>(stats.slabs),
                static_cast<long long>(stats.edges),
                static_cast<long long>(stats.dep_pairs_checked), errors(),
                warnings(),
                suppressed > 0 ? " (further diagnostics suppressed)" : "");
  return buf;
}

namespace {

/// One expanded slab, tagged with its tile and intra-tile position.
struct SlabRec {
  std::int32_t tile = 0;
  std::int32_t seq = 0;  ///< slab index within the tile's traversal order
  Box box;
  std::int64_t wavefront = 0;
};

std::int64_t key_lo(const Box& b, int dims) {
  return dims == 1 ? b.xlo : dims == 2 ? b.ylo : b.zlo;
}

std::int64_t key_hi(const Box& b, int dims) {
  return dims == 1 ? b.xhi : dims == 2 ? b.yhi : b.zhi;
}

bool boxes_intersect(const Box& a, const Box& b) {
  return a.xlo <= b.xhi && b.xlo <= a.xhi && a.ylo <= b.yhi &&
         b.ylo <= a.yhi && a.zlo <= b.zhi && b.zlo <= a.zhi;
}

Box intersect_box(const Box& a, const Box& b) {
  return {std::max(a.xlo, b.xlo), std::min(a.xhi, b.xhi),
          std::max(a.ylo, b.ylo), std::min(a.yhi, b.yhi),
          std::max(a.zlo, b.zlo), std::min(a.zhi, b.zhi)};
}

/// Diagnostic collector with a soft cap: beyond max_diags, diags are counted
/// but dropped — except the first of each kind, which is always recorded so
/// ok() cannot be fooled by a flood of one kind masking another.
class DiagSink {
 public:
  DiagSink(VerifyReport& rep, const VerifyOptions& opt)
      : rep_(rep), opt_(opt) {}

  void emit(Diag d) {
    const std::uint32_t bit = 1u << static_cast<unsigned>(d.kind);
    if (rep_.diags.size() < opt_.max_diags || (seen_ & bit) == 0) {
      seen_ |= bit;
      rep_.diags.push_back(std::move(d));
    } else {
      ++rep_.suppressed;
    }
  }

 private:
  VerifyReport& rep_;
  const VerifyOptions& opt_;
  std::uint32_t seen_ = 0;
};

}  // namespace

VerifyReport verify_plan(const TilePlan& p, const VerifyOptions& opt) {
  VerifyReport rep;
  DiagSink sink(rep, opt);
  const auto n = static_cast<std::int32_t>(p.tiles.size());
  rep.stats.tiles = n;
  rep.stats.edges = static_cast<std::int64_t>(p.edges.size());

  // ---- Structural invariants. Range violations abort early: every later
  // pass indexes by owner/phase/tile id.
  auto malformed = [&](std::int32_t tile, std::string msg) {
    Diag d;
    d.kind = DiagKind::MalformedPlan;
    d.tile_a = tile;
    d.detail = std::move(msg);
    sink.emit(std::move(d));
  };
  bool ranges_ok = true;
  if (p.dims < 1 || p.dims > 3) {
    malformed(-1, "dims must be 1, 2 or 3");
    ranges_ok = false;
  }
  if (p.threads < 1) {
    malformed(-1, "threads < 1");
    ranges_ok = false;
  }
  if (p.nx < 1 || p.ny < 1 || p.nz < 1) {
    malformed(-1, "non-positive domain extent");
    ranges_ok = false;
  }
  if (ranges_ok) {
    for (std::int32_t i = 0; i < n; ++i) {
      const Tile& t = p.tiles[i];
      if (t.owner < 0 || t.owner >= p.threads) {
        malformed(i, "tile owner outside [0, threads)");
        ranges_ok = false;
      }
      if (t.phase < 0 || t.phase >= std::max(p.phases, 1)) {
        malformed(i, "tile phase outside [0, phases)");
        ranges_ok = false;
      }
    }
  }
  for (const SyncEdge& e : p.edges) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
      malformed(-1, "sync edge endpoint outside the tile list");
      ranges_ok = false;
    }
  }
  if (!ranges_ok) return rep;

  // Per-owner program order; phases must be non-decreasing along it (a
  // worker never returns to an earlier barrier phase).
  const int threads = p.threads;
  std::vector<std::vector<std::int32_t>> order(
      static_cast<std::size_t>(threads));
  std::vector<std::int32_t> seq(static_cast<std::size_t>(n), 0);
  for (std::int32_t i = 0; i < n; ++i) {
    auto& ord = order[static_cast<std::size_t>(p.tiles[i].owner)];
    if (!ord.empty() && p.tiles[ord.back()].phase > p.tiles[i].phase) {
      malformed(i, "owner's program order revisits an earlier phase");
    }
    ord.push_back(i);
    seq[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(ord.size());
  }

  // ---- Sync-edge resolution (progress check, part 1).
  // Done edges need a producer that publishes its flag. A ProgressGE wait on
  // thread R's cell is satisfied by the earliest tile in R's program order
  // that publishes a wavefront >= value and is visible to the waiter's
  // phase: with BarrierResetBarrier the cell is cleared between phases, so
  // only the waiter's own phase counts; otherwise earlier phases persist.
  std::vector<std::pair<std::int32_t, std::int32_t>> redges;
  redges.reserve(p.edges.size());
  for (const SyncEdge& e : p.edges) {
    if (e.kind == SyncEdge::Kind::Done) {
      if (!p.tiles[e.from].publishes_done) {
        Diag d;
        d.kind = DiagKind::StuckWait;
        d.tile_a = e.to;
        d.tile_b = e.from;
        d.detail = "Done wait on a tile that never publishes its done flag";
        sink.emit(std::move(d));
        continue;
      }
      redges.emplace_back(e.from, e.to);
      continue;
    }
    const std::int32_t powner = p.tiles[e.from].owner;
    const std::int32_t wphase = p.tiles[e.to].phase;
    std::int32_t resolved = -1;
    for (std::int32_t cand : order[static_cast<std::size_t>(powner)]) {
      const Tile& c = p.tiles[cand];
      const bool visible = p.phase_sync == PhaseSync::BarrierResetBarrier
                               ? c.phase == wphase
                               : c.phase <= wphase;
      if (visible && c.publishes_progress && c.u >= e.value) {
        resolved = cand;
        break;
      }
    }
    if (resolved < 0) {
      Diag d;
      d.kind = DiagKind::StuckWait;
      d.tile_a = e.to;
      d.tile_b = e.from;
      d.bytes = e.value;
      d.detail = "no publish by the producer thread reaches the waited "
                 "progress bound in the waiter's phase";
      sink.emit(std::move(d));
      continue;
    }
    redges.emplace_back(resolved, e.to);
  }

  // ---- Happens-before graph: per-owner program order + resolved sync edges
  // + virtual barrier nodes between phases. Kahn toposort doubles as the
  // deadlock check (progress check, part 2) and drives the vector-clock
  // computation used for symbolic dependence coverage.
  const std::int32_t nbar =
      (p.phase_sync != PhaseSync::None && p.phases > 1)
          ? static_cast<std::int32_t>(p.phases - 1)
          : 0;
  const std::int32_t total = n + nbar;
  std::vector<std::vector<std::int32_t>> adj(
      static_cast<std::size_t>(total));
  std::vector<std::int32_t> indeg(static_cast<std::size_t>(total), 0);
  auto add_edge = [&](std::int32_t a, std::int32_t b) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    ++indeg[static_cast<std::size_t>(b)];
  };
  for (const auto& ord : order) {
    for (std::size_t i = 1; i < ord.size(); ++i) {
      add_edge(ord[i - 1], ord[i]);
    }
  }
  for (const auto& [from, to] : redges) add_edge(from, to);
  if (nbar > 0) {
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t ph = p.tiles[i].phase;
      if (ph < p.phases - 1) add_edge(i, n + ph);
      if (ph > 0) add_edge(n + ph - 1, i);
    }
    for (std::int32_t b = 1; b < nbar; ++b) add_edge(n + b - 1, n + b);
  }

  // Vector clocks, flat [node][owner]: vc[a][o] is the largest per-owner
  // sequence number of an o-owned tile that happens-before a (inclusive of a
  // itself). hb(b, a) is then the O(1) test vc[a][owner(b)] >= seq(b).
  std::vector<std::int32_t> vc(
      static_cast<std::size_t>(total) * static_cast<std::size_t>(threads), 0);
  std::vector<std::int32_t> ready;
  for (std::int32_t i = 0; i < total; ++i) {
    if (indeg[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  }
  std::int64_t processed = 0;
  while (!ready.empty()) {
    const std::int32_t a = ready.back();
    ready.pop_back();
    ++processed;
    auto* va = &vc[static_cast<std::size_t>(a) *
                   static_cast<std::size_t>(threads)];
    if (a < n) {
      auto& own = va[p.tiles[a].owner];
      own = std::max(own, seq[static_cast<std::size_t>(a)]);
    }
    for (const std::int32_t b : adj[static_cast<std::size_t>(a)]) {
      auto* vb = &vc[static_cast<std::size_t>(b) *
                     static_cast<std::size_t>(threads)];
      for (int o = 0; o < threads; ++o) vb[o] = std::max(vb[o], va[o]);
      if (--indeg[static_cast<std::size_t>(b)] == 0) ready.push_back(b);
    }
  }
  const bool acyclic = processed == total;
  if (!acyclic) {
    Diag d;
    d.kind = DiagKind::SyncCycle;
    for (std::int32_t a = 0; a < total && d.tile_a < 0; ++a) {
      if (indeg[static_cast<std::size_t>(a)] == 0 &&
          std::find(ready.begin(), ready.end(), a) == ready.end()) {
        continue;  // processed
      }
      if (indeg[static_cast<std::size_t>(a)] == 0) continue;
      for (const std::int32_t b : adj[static_cast<std::size_t>(a)]) {
        if (indeg[static_cast<std::size_t>(b)] > 0) {
          d.tile_a = a < n ? a : -1;
          d.tile_b = b < n ? b : -1;
          break;
        }
      }
    }
    std::int64_t stuck = 0;
    for (std::int32_t i = 0; i < n; ++i) {
      if (indeg[static_cast<std::size_t>(i)] > 0) ++stuck;
    }
    d.detail = std::to_string(stuck) + " tile(s) unreachable";
    sink.emit(std::move(d));
  }
  auto hb = [&](std::int32_t b, std::int32_t a) {
    return vc[static_cast<std::size_t>(a) * static_cast<std::size_t>(threads) +
              static_cast<std::size_t>(p.tiles[b].owner)] >=
           seq[static_cast<std::size_t>(b)];
  };

  // ---- Slab materialization through the same enumeration the executor
  // walks, plus the residency accumulation: slabs of one tile sharing a
  // wavefront id form the working set the scheme keeps cache-resident.
  const Box dom = detail::full_domain(p);
  std::vector<std::vector<SlabRec>> bucket(
      static_cast<std::size_t>(std::max(p.T, 0)) + 1);
  std::int64_t max_ws_cells = 0;
  std::int32_t max_ws_tile = -1;
  std::int64_t max_ws_wavefront = 0;
  int max_ws_t = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    std::int32_t sseq = 0;
    std::int64_t cur_wf = 0, cur_cells = 0;
    bool have_wf = false;
    int cur_t = 0;
    auto flush_wf = [&]() {
      if (have_wf && cur_cells > max_ws_cells) {
        max_ws_cells = cur_cells;
        max_ws_tile = i;
        max_ws_wavefront = cur_wf;
        max_ws_t = cur_t;
      }
      cur_cells = 0;
    };
    for_each_slab(p, p.tiles[i], [&](const Slab& sl) {
      if (sl.t < 1 || sl.t > p.T) {
        Diag d;
        d.kind = DiagKind::MalformedPlan;
        d.tile_a = i;
        d.t = sl.t;
        d.detail = "slab timestep outside [1, T]";
        sink.emit(std::move(d));
        return;
      }
      if (!boxes_intersect(sl.box, dom) || sl.box.xlo < dom.xlo ||
          sl.box.xhi > dom.xhi || sl.box.ylo < dom.ylo ||
          sl.box.yhi > dom.yhi || sl.box.zlo < dom.zlo ||
          sl.box.zhi > dom.zhi) {
        Diag d;
        d.kind = DiagKind::OutOfDomain;
        d.tile_a = i;
        d.t = sl.t;
        d.x = sl.box.xlo < dom.xlo ? sl.box.xlo : sl.box.xhi;
        d.y = sl.box.ylo < dom.ylo ? sl.box.ylo : sl.box.yhi;
        d.z = sl.box.zlo < dom.zlo ? sl.box.zlo : sl.box.zhi;
        sink.emit(std::move(d));
      }
      if (!have_wf || sl.wavefront != cur_wf) {
        flush_wf();
        cur_wf = sl.wavefront;
        have_wf = true;
        cur_t = sl.t;
      }
      cur_cells += sl.box.cells();
      bucket[static_cast<std::size_t>(sl.t)].push_back(
          SlabRec{i, sseq++, sl.box, sl.wavefront});
    });
    flush_wf();
    rep.stats.slabs += sseq;
  }
  if (p.cs_eff > 0.0) {
    rep.stats.max_wavefront_bytes = static_cast<std::int64_t>(
        std::ceil(p.cs_eff * static_cast<double>(max_ws_cells) *
                  p.elem_bytes));
  }

  // ---- Per-timestep geometry: the slabs of each t must partition the
  // domain. Sorted sweep along the traversal dimension keeps the pairwise
  // overlap test near-linear for wavefront-style plans.
  const int dims = p.dims;
  for (int t = 1; t <= p.T; ++t) {
    auto& B = bucket[static_cast<std::size_t>(t)];
    std::sort(B.begin(), B.end(), [&](const SlabRec& a, const SlabRec& b) {
      return key_lo(a.box, dims) < key_lo(b.box, dims);
    });
    bool overlapped = false;
    std::int64_t cells = 0;
    for (const SlabRec& r : B) cells += r.box.cells();
    for (std::size_t i = 0; i < B.size(); ++i) {
      const std::int64_t hi = key_hi(B[i].box, dims);
      for (std::size_t j = i + 1;
           j < B.size() && key_lo(B[j].box, dims) <= hi; ++j) {
        if (!boxes_intersect(B[i].box, B[j].box)) continue;
        overlapped = true;
        const Box c = intersect_box(B[i].box, B[j].box);
        Diag d;
        d.kind = DiagKind::TileOverlap;
        d.tile_a = B[i].tile;
        d.tile_b = B[j].tile;
        d.t = t;
        d.x = c.xlo;
        d.y = c.ylo;
        d.z = c.zlo;
        sink.emit(std::move(d));
      }
    }
    if (!overlapped && cells != p.domain_cells()) {
      Diag d;
      d.kind = DiagKind::CoverageGap;
      d.t = t;
      d.bytes = cells;
      d.limit = p.domain_cells();
      sink.emit(std::move(d));
    }
  }

  // ---- Dependence coverage. For every slab at t, every slab at t-1 within
  // the slope-s halo must be ordered before it: intra-tile slab order for
  // the same tile, happens-before (vector clocks) across tiles. The rule is
  // symmetric in +-s, so it covers the flow reads and the double-buffer WAR
  // hazard at once. Verdicts and diagnostics are memoized per ordered tile
  // pair — coverage is a tile-level property, so one witness suffices.
  if (acyclic) {
    const std::int64_t s = p.slope;
    // Memoized per ordered tile pair. Large plans check hundreds of millions
    // of slab pairs against a few thousand tile pairs, so the memo is the
    // hot path: a dense n*n byte matrix when affordable, hashing otherwise.
    // Verdict encoding: 0 = unchecked, 1 = ordered, 2 = uncovered.
    const bool dense = n <= 8192;
    std::vector<std::uint8_t> mat(
        dense ? static_cast<std::size_t>(n) * static_cast<std::size_t>(n)
              : 0);
    std::unordered_map<std::uint64_t, std::uint8_t> sparse;
    std::unordered_set<std::uint64_t> diagnosed;
    auto pair_key = [](std::int32_t b, std::int32_t a) {
      return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(b))
              << 32) |
             static_cast<std::uint32_t>(a);
    };
    auto verdict = [&](std::int32_t b, std::int32_t a) -> std::uint8_t& {
      if (dense) {
        return mat[static_cast<std::size_t>(b) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(a)];
      }
      return sparse[pair_key(b, a)];
    };
    for (int t = 2; t <= p.T; ++t) {
      const auto& A = bucket[static_cast<std::size_t>(t)];
      const auto& B = bucket[static_cast<std::size_t>(t - 1)];
      if (A.empty() || B.empty()) continue;
      std::int64_t span = 0;
      for (const SlabRec& r : B) {
        span = std::max(span, key_hi(r.box, dims) - key_lo(r.box, dims));
      }
      for (const SlabRec& a : A) {
        Box e = a.box;
        e.xlo = std::max(e.xlo - s, dom.xlo);
        e.xhi = std::min(e.xhi + s, dom.xhi);
        if (dims >= 2) {
          e.ylo = std::max(e.ylo - s, dom.ylo);
          e.yhi = std::min(e.yhi + s, dom.yhi);
        }
        if (dims >= 3) {
          e.zlo = std::max(e.zlo - s, dom.zlo);
          e.zhi = std::min(e.zhi + s, dom.zhi);
        }
        const std::int64_t lo = key_lo(e, dims) - span;
        auto it = std::lower_bound(
            B.begin(), B.end(), lo, [&](const SlabRec& r, std::int64_t v) {
              return key_lo(r.box, dims) < v;
            });
        for (; it != B.end() && key_lo(it->box, dims) <= key_hi(e, dims);
             ++it) {
          const SlabRec& b = *it;
          if (!boxes_intersect(e, b.box)) continue;
          ++rep.stats.dep_pairs_checked;
          bool ordered;
          if (b.tile == a.tile) {
            ordered = b.seq < a.seq;
          } else {
            std::uint8_t& v = verdict(b.tile, a.tile);
            if (v == 0) v = hb(b.tile, a.tile) ? 1 : 2;
            ordered = v == 1;
          }
          if (ordered) continue;
          if (!diagnosed.insert(pair_key(b.tile, a.tile)).second) continue;
          const Box w = intersect_box(e, b.box);
          Diag d;
          d.kind = DiagKind::DepUncovered;
          d.tile_a = a.tile;
          d.tile_b = b.tile;
          d.t = t;
          d.nx = w.xlo;
          d.ny = w.ylo;
          d.nz = w.zlo;
          d.x = std::clamp(w.xlo, a.box.xlo, a.box.xhi);
          d.y = std::clamp(w.ylo, a.box.ylo, a.box.yhi);
          d.z = std::clamp(w.zlo, a.box.zlo, a.box.zhi);
          sink.emit(std::move(d));
        }
      }
    }
  }

  // ---- Cache-residency certification: the largest wavefront working set
  // (CS' bytes per cell) must fit in Z, and the emitted parameters must not
  // exceed Eq. 1 / Eq. 2 recomputed from the plan's own cache model. Eq. 2
  // is continuous: a lattice diamond's area exceeds bz^2/(2s) by at most bz
  // cells (the width profile is concave, so the integer sum is bounded by
  // integral + max), so that many extra rows are admitted before a diamond
  // wavefront counts as overflowing. Eq. 1 is exact — no allowance. A plan
  // whose parameter was clamp-floored by the selector is expected to exceed
  // Z — warning, not error.
  if (p.certify_residency && p.cache_bytes > 0 && p.cs_eff > 0.0) {
    std::int64_t allow_cells = 0;
    if (p.scheme == Scheme::Cats2) {
      allow_cells = p.bz * (p.dims == 2 ? 1 : p.nx);
    } else if (p.scheme == Scheme::Cats3) {
      allow_cells = p.bz * p.bx;
    }
    const auto allowed =
        static_cast<std::int64_t>(p.cache_bytes) +
        static_cast<std::int64_t>(
            std::ceil(p.cs_eff * static_cast<double>(allow_cells) *
                      p.elem_bytes));
    const std::int64_t ws = rep.stats.max_wavefront_bytes;
    if (ws > allowed) {
      Diag d;
      d.kind = DiagKind::WavefrontOverflow;
      d.warning = p.clamped;
      d.tile_a = max_ws_tile;
      d.t = max_ws_t;
      d.bytes = ws;
      d.limit = allowed;
      d.detail = "wavefront " + std::to_string(max_ws_wavefront) + ", " +
                 std::to_string(max_ws_cells) + " cells; Z=" +
                 std::to_string(p.cache_bytes) +
                 (p.cache_tenants > 1
                      ? " (1/" + std::to_string(p.cache_tenants) +
                            " tenant share)"
                      : "");
      sink.emit(std::move(d));
    }
    DomainShape dsh;
    if (p.dims == 1) {
      dsh = {p.nx, p.nx, 0, 1};
    } else if (p.dims == 2) {
      dsh = {p.nx * p.ny, p.ny, p.nx, 2};
    } else {
      dsh = {p.nx * p.ny * p.nz, p.nz, p.ny, 3};
    }
    const KernelCosts costs{p.slope, p.cs_eff, p.elem_bytes};
    if (p.scheme == Scheme::Cats1) {
      const int lim = std::max(
          1, std::min(compute_tz(p.cache_bytes, dsh, costs),
                      std::max(p.T, 1)));
      if (p.tz > lim) {
        Diag d;
        d.kind = DiagKind::TzExceedsEq1;
        d.bytes = p.tz;
        d.limit = lim;
        sink.emit(std::move(d));
      }
    } else if (p.scheme == Scheme::Cats2 || p.scheme == Scheme::Cats3) {
      const std::int64_t lim = p.scheme == Scheme::Cats3
                                   ? compute_bz3(p.cache_bytes, costs)
                                   : compute_bz(p.cache_bytes, dsh, costs);
      const std::int64_t got = std::max(p.bz, p.scheme == Scheme::Cats3
                                                  ? p.bx
                                                  : std::int64_t{0});
      if (got > lim) {
        Diag d;
        d.kind = DiagKind::BzExceedsEq2;
        d.bytes = got;
        d.limit = lim;
        sink.emit(std::move(d));
      }
    }
  }

  return rep;
}

}  // namespace cats::plan_ir
