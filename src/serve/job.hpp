#pragma once
// Job model of the stencil service (src/serve).
//
// A job is one complete stencil run — kernel family, domain, timestep count
// and the RunOptions surface a remote tenant may set — submitted over the
// wire (serve/protocol.hpp), admitted by the scheduler (serve/scheduler.hpp)
// and executed on a NUMA shard (serve/exec.hpp). The result carries the
// terminal status, the scheme the selector picked, performance figures and a
// checksum of the final grid so clients can verify bit-exactness against a
// local run of the same job.

#include <cstdint>
#include <string>

#include "core/options.hpp"

namespace cats::serve {

/// Terminal job states reported to the client.
enum class JobStatus : std::uint8_t {
  Done,       ///< ran to completion; result fields are valid
  Rejected,   ///< never admitted (queue full, draining, invalid request)
  Cancelled,  ///< admitted but evicted from the queue before starting
  Failed,     ///< started but could not complete (schedule verifier, OOM)
};

const char* job_status_name(JobStatus s);

struct JobRequest {
  /// Fair-share accounting key; independent tenants get proportional service.
  std::string tenant = "default";

  /// Kernel family: "const2d" (5-point star), "const2d_f32" (its
  /// single-precision instantiation — half the bytes per point, so Eq. 1/2
  /// size tiles twice as deep) or "const3d" (7-point star), all slope 1 with
  /// the default test weights — enough to exercise every scheme while
  /// keeping the wire format closed over known kernels.
  std::string kernel = "const2d";

  std::int64_t nx = 0, ny = 0, nz = 0;  ///< nz == 0 selects the 2D family
  int t_steps = 1;

  /// Deterministic initial condition: u(x,y,z,0) = init_value(seed, x,y,z)
  /// (serve/exec.hpp), a function of *global* coordinates so a domain split
  /// across shards seeds identically to an unsharded run.
  std::uint64_t seed = 1;

  int threads = 0;  ///< worker threads; 0 = the executing shard's default
  Scheme scheme = Scheme::Auto;
  std::size_t cache_bytes = 0;  ///< Z override; 0 = detect on the shard
  int unroll_t = 0;

  /// Cross-shard domain decomposition policy.
  enum class Split : std::uint8_t {
    Auto,   ///< split when the job is large and several shards exist
    Never,  ///< always run on a single shard
    Force,  ///< split whenever more than one shard exists
  };
  Split split = Split::Auto;
};

struct JobResult {
  JobStatus status = JobStatus::Failed;
  std::string error;  ///< human-readable cause for non-Done statuses

  std::string scheme;       ///< scheme_name() of what actually ran
  int tz = 0;               ///< CATS1 chunk height (0 when unused)
  std::int64_t bz = 0, bx = 0;
  int shards_used = 1;      ///< > 1 when the domain was halo-split
  int threads = 0;          ///< workers the run actually used (per shard)
  int cache_tenants = 1;    ///< co-resident jobs Eq. 1/2 budgeted for

  double seconds = 0.0;
  double mlups = 0.0;             ///< nx*ny*nz*T / seconds / 1e6
  double model_dram_bytes = 0.0;  ///< cachesim/traffic_model.hpp estimate
  /// Position-keyed sum over the final grid in copy_result_to order:
  /// Σ_i checksum_step(i, v_i) mod 2^64 (serve/exec.hpp). Bijective per
  /// index (any changed element changes it, even 0.0 to -0.0),
  /// position-keyed (a moved value changes it) and partition-independent
  /// (every thread count and shard split gives the same value).
  std::uint64_t checksum = 0;
  double sample = 0.0;            ///< center-point value (human sanity check)
};

inline bool job_is_3d(const JobRequest& rq) { return rq.nz > 0; }

inline std::int64_t job_points(const JobRequest& rq) {
  return rq.nx * rq.ny * (job_is_3d(rq) ? rq.nz : 1);
}

/// Total point updates — the fair-share cost unit.
inline std::int64_t job_cost(const JobRequest& rq) {
  return job_points(rq) * (rq.t_steps > 0 ? rq.t_steps : 1);
}

inline bool kernel_known(const std::string& k) {
  return k == "const2d" || k == "const2d_f32" || k == "const3d";
}

/// Per-dimension and total-size caps the server enforces at admission. The
/// point cap bounds a job's two grid buffers to ~1 GiB.
inline constexpr std::int64_t kMaxExtent = 1 << 20;
inline constexpr std::int64_t kMaxPoints = std::int64_t{1} << 26;
inline constexpr int kMaxTimesteps = 1 << 20;

/// Admission-time validation shared by client and server: dimensions match
/// the kernel family, caps hold, scheme is runnable. Returns false and sets
/// `err` on the first violation.
bool validate_job(const JobRequest& rq, std::string* err);

}  // namespace cats::serve
