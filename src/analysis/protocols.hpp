#pragma once
// Sync-protocol checks: the four production primitives — SpinBarrier,
// ProgressCell, DoneFlag, and the thread pool's pin-handshake latch —
// re-instantiated over SimShim and explored exhaustively
// (analysis/explore.hpp). Each scenario encodes the happens-before contract
// the plan verifier's SyncEdge semantics assume (publish → observe, barrier
// all-to-all, reset under barrier-reset-barrier) as non-atomic data
// handoffs, so a missing edge surfaces as a data race with a full
// interleaving trace.
//
// Minimality: every annotated order site (site_table) is re-run one
// weakening step down (seq_cst→acq_rel→acquire/release→relaxed); the sweep
// reports which weakenings are safe (order over-strong: a finding) vs.
// which produce counterexamples (order proven minimal).

#include <atomic>
#include <string>
#include <vector>

#include "analysis/explore.hpp"

namespace cats {
namespace analysis {

/// Every `// order:` site of the shim-templated primitives, one runtime
/// slot each (the Dyn* order providers in protocols.cpp read this table).
enum SiteId : int {
  kSbSensePeek,
  kSbArrive,
  kSbCountReset,
  kSbSensePublish,
  kSbSenseWait,
  kPcReset,
  kPcPublish,
  kPcLoad,
  kPcWait,
  kDfSet,
  kDfTest,
  kPlNote,
  kPlRead,
  kNumSites
};

struct SiteInfo {
  SiteId id;
  const char* prim;  ///< "SpinBarrier", ...
  const char* site;  ///< "arrive", ...
  std::memory_order prod;  ///< production default (the *ProdOrders value)
  char op;  ///< 'l' load, 's' store, 'r' read-modify-write
};

const std::vector<SiteInfo>& site_table();

/// Runtime order of one site (what the Dyn providers consult).
std::memory_order& site_order(SiteId id);
/// Restore every site to its production order.
void reset_site_orders();

/// One-step weakenings of `mo` for an op of kind `op`.
std::vector<std::memory_order> order_weakenings(std::memory_order mo, char op);

/// Scenarios exercising one primitive. `thorough` adds the larger
/// configurations (3-thread barrier) used for base verification only.
std::vector<Scenario> scenarios_for_primitive(const char* prim,
                                              bool thorough = false);

struct PrimCheck {
  std::string scenario;
  ExploreResult result;
};

/// Base verification: production orders, all primitives, all scenarios.
std::vector<PrimCheck> check_all_primitives(const ExploreLimits& lim = {});

struct MinFinding {
  const char* prim = "";
  const char* site = "";
  std::memory_order prod = std::memory_order_relaxed;
  std::memory_order varied = std::memory_order_relaxed;
  bool strengthening = false;  ///< historical-strength audit, not a weakening
  bool safe = false;           ///< all scenarios still pass under `varied`
  std::string error;           ///< exploration error (cap); distinct from cex
  std::string cex_reason;
  std::vector<std::string> cex_trace;
  long long executions = 0;
};

/// Weaken each site one step and re-verify; also re-runs the pin handshake
/// at its historical acq_rel/acquire strength (the documented downgrade:
/// thread_pool's pinned counter, see threads/pin_latch.hpp).
std::vector<MinFinding> minimality_sweep(const ExploreLimits& lim = {});

/// Re-verify one primitive with a single site forced to `mo` (negative
/// tests: a weakened barrier release must produce a counterexample trace).
ExploreResult check_with_site_order(SiteId site, std::memory_order mo,
                                    const ExploreLimits& lim = {});

}  // namespace analysis
}  // namespace cats
