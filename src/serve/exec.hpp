#pragma once
// Single-shard job execution for the stencil service.
//
// execute_job() materializes a JobRequest as a concrete kernel (const2d ->
// ConstStar2D<1>, const3d -> ConstStar3D<1> with the default test weights),
// seeds it deterministically from global coordinates, runs cats::run under
// the shard's placement constraints, and reports scheme, timing, the
// analytic DRAM-traffic estimate (cachesim/traffic_model.hpp) and a
// checksum of the final grid. Because the initial condition is a pure
// function of (seed, x, y, z), any two executions of the same request — on
// one shard, batched with other tenants, or halo-split across shards
// (serve/halo.hpp) — must produce bit-identical grids, and the checksum
// makes that verifiable over the wire.
//
// The checksum is a position-keyed sum, Σ_i checksum_step(i, v_i) mod 2^64,
// over the final grid in copy_result_to order (x fastest, then y, then z;
// fp32 values widened to double):
//   - bijective per index: for a fixed i, checksum_step is a bijection of
//     the element's IEEE-754 bits, so changing any one element (0.0 to -0.0,
//     one NaN payload to another) always changes the sum;
//   - position-keyed: the index enters every term, so moving a value to
//     another position changes the sum too;
//   - partition-independent: the sum does not depend on the order terms are
//     added in, so every thread count, shard split and partition of the grid
//     gives the same value.
// The terms are independent (no loop-carried hash chain), so one pass over
// the grid costs a few multiplies per point on one core.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/selector.hpp"
#include "core/stats.hpp"
#include "serve/job.hpp"

namespace cats::serve {

/// Shard-side execution context the scheduler resolves per dispatch.
struct ExecEnv {
  /// Explicit pin order (the shard's CPU slice); nullptr/empty = unpinned.
  const std::vector<int>* pin_cpus = nullptr;
  int threads = 1;        ///< default worker count for this dispatch
  int cache_tenants = 1;  ///< co-resident jobs sharing the shard's cache
  Tuning tuning = Tuning::Off;
  const char* tune_db = nullptr;  ///< absolute DB path; nullptr = default
  RunStats* stats = nullptr;      ///< shard-wide sync counters (optional)
};

/// The splitmix64 finalizer: xor-shifts and odd multiplies, a bijection of
/// the 64-bit word.
inline std::uint64_t splitmix64_mix(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

/// Deterministic initial condition in [0, 1): splitmix64-style hash of the
/// seed and the *global* point coordinates. Identical across sharded and
/// unsharded executions by construction.
inline double init_value(std::uint64_t seed, std::int64_t x, std::int64_t y,
                         std::int64_t z) {
  std::uint64_t h = seed + 0x9E3779B97F4A7C15ULL;
  h += static_cast<std::uint64_t>(x) * 0xBF58476D1CE4E5B9ULL;
  h += static_cast<std::uint64_t>(y) * 0x94D049BB133111EBULL;
  h += static_cast<std::uint64_t>(z) * 0xD6E8FEB86659FD93ULL;
  return static_cast<double>(splitmix64_mix(h) >> 11) * 0x1.0p-53;
}

/// Term of the grid checksum for element `d` at position `i` (see the file
/// comment): splitmix64_mix(bits(d) ^ i * 0x9E3779B97F4A7C15).
inline std::uint64_t checksum_step(std::uint64_t i, double d) {
  return splitmix64_mix(std::bit_cast<std::uint64_t>(d) ^
                        (i * 0x9E3779B97F4A7C15ULL));
}

/// The served-job checksum of a grid already copied out in copy_result_to
/// order: Σ_i checksum_step(i, v[i]) mod 2^64. Split jobs (serve/halo.hpp)
/// hash the grid they gather with it.
std::uint64_t grid_checksum(const std::vector<double>& v);

/// FNV-1a 64 over the raw bytes of a double vector. Kept for the repository
/// benchmark only (perfbench's reference hashes); served jobs use
/// grid_checksum's definition.
std::uint64_t fnv1a(const std::vector<double>& v);

/// RunOptions a job resolves to under `env` (threads clamp, pinning, tenant
/// cache share, tuning DB). Shared with the split executor (serve/halo.hpp)
/// so a per-shard block run uses exactly the single-shard option surface.
RunOptions job_run_options(const JobRequest& rq, const ExecEnv& env);

/// Analytic DRAM-traffic estimate for what a run chose (mirrors the bench
/// harness accounting): naive/CATS1/CATS2 closed forms from
/// cachesim/traffic_model.hpp, CATS3 approximated by the CATS2 form,
/// PlutoLike by naive, plus the RFO write-allocate correction. `elem_bytes`
/// is the storage size per point (4 for the fp32 families). The unnamed
/// bool is ignored: it was the non-temporal-store switch, kept in the
/// signature only because the repository benchmark (perfbench/) passes it;
/// drop it at the next change to the benchmark.
double model_bytes_for(const SchemeChoice& choice, std::int64_t n,
                       std::int64_t wmax, int t_steps, int tiles, bool,
                       double elem_bytes = 8.0);

/// Run one job on one shard. `out_grid`, when non-null, receives the final
/// grid (x fastest) for bit-exactness tests. Never throws: allocation or
/// verification failures come back as JobStatus::Failed.
JobResult execute_job(const JobRequest& rq, const ExecEnv& env,
                      std::vector<double>* out_grid = nullptr);

}  // namespace cats::serve
