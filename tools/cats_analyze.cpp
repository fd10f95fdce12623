// cats_analyze — static concurrency & footprint verifier CLI (DESIGN.md §15).
//
// Modes:
//   --mc           exhaustively model-check the four sync primitives at
//                  production memory orders (zero missing happens-before
//                  edges under every interleaving)
//   --minimality   weaken each annotated order site one step and re-verify;
//                  report safe weakenings (over-strong annotations) vs.
//                  counterexamples (order proven minimal)
//   --footprint    symbolic kernel access analysis: record every load/store
//                  of each kernel family under each scheme x option config
//                  and certify halo containment, alignment, write versioning
//                  and buffer-parity non-aliasing against the emitted plans
//   --sweep        all of the above (the CI entry point)
//
// Exit codes mirror cats_plan_check: 0 = verified, 1 = counterexample /
// violation found, 2 = usage or internal error (including exploration cap
// exceeded — a cap is never a silent pass).

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/footprint.hpp"
#include "analysis/protocols.hpp"
#include "analysis/weak_memory.hpp"

namespace {

using namespace cats::analysis;

void print_trace(const std::vector<std::string>& trace) {
  for (const auto& line : trace) std::printf("      %s\n", line.c_str());
}

int run_mc(bool verbose) {
  std::printf("== model check: sync primitives at production orders ==\n");
  int bad = 0;
  for (const auto& pc : check_all_primitives()) {
    const auto& r = pc.result;
    if (!r.error.empty()) {
      std::printf("  ERROR %-28s %s\n", pc.scenario.c_str(),
                  r.error.c_str());
      ++bad;
      continue;
    }
    if (r.has_cex()) {
      std::printf("  FAIL  %-28s %s\n", pc.scenario.c_str(),
                  r.cex.front().reason.c_str());
      print_trace(r.cex.front().trace);
      ++bad;
      continue;
    }
    std::printf("  ok    %-28s %lld executions (%lld pruned, depth %d)\n",
                pc.scenario.c_str(), r.executions, r.pruned, r.max_depth);
  }
  (void)verbose;
  if (bad) std::printf("model check: %d scenario(s) FAILED\n", bad);
  return bad ? 1 : 0;
}

int run_minimality(bool verbose) {
  std::printf("== minimality: one-step order weakenings per site ==\n");
  int errors = 0;
  int safe = 0;
  int minimal = 0;
  for (const auto& f : minimality_sweep()) {
    const char* tag = f.strengthening ? "audit" : "weaken";
    if (!f.error.empty()) {
      std::printf("  ERROR %s %s.%s %s->%s: %s\n", tag, f.prim, f.site,
                  mo_name(f.prod), mo_name(f.varied), f.error.c_str());
      ++errors;
      continue;
    }
    if (f.safe) {
      ++safe;
      if (f.strengthening) {
        std::printf(
            "  ok    audit  %s.%s passes at historical %s "
            "(production %s is the documented downgrade)\n",
            f.prim, f.site, mo_name(f.varied), mo_name(f.prod));
      } else {
        std::printf(
            "  NOTE  %s.%s: %s weakens safely to %s over the checked "
            "scenarios (candidate downgrade; see pin_latch.hpp for the "
            "applied ones)\n",
            f.prim, f.site, mo_name(f.prod), mo_name(f.varied));
      }
      continue;
    }
    ++minimal;
    std::printf("  ok    %s %s.%s: %s -> %s refuted: %s\n", tag, f.prim,
                f.site, mo_name(f.prod), mo_name(f.varied),
                f.cex_reason.c_str());
    if (verbose) print_trace(f.cex_trace);
  }
  std::printf(
      "minimality: %d site-weakenings refuted (orders minimal), "
      "%d safe, %d errors\n",
      minimal, safe, errors);
  return errors ? 2 : 0;
}

int run_footprint(bool verbose) {
  std::printf("== footprint: symbolic kernel access analysis ==\n");
  const auto reports = footprint_sweep();
  int bad = 0;
  long long loads = 0;
  long long stores = 0;
  for (const auto& rep : reports) {
    loads += rep.loads;
    stores += rep.stores;
    if (!rep.diags.empty()) {
      ++bad;
      std::printf("  FAIL  %s\n", rep.config.c_str());
      for (const auto& d : rep.diags)
        std::printf("      %s\n", d.message.c_str());
      continue;
    }
    if (verbose)
      std::printf("  ok    %s (%lld loads, %lld stores)\n",
                  rep.config.c_str(), rep.loads, rep.stores);
  }
  std::printf(
      "footprint: %zu configs, %lld loads + %lld stores certified, "
      "%d config(s) FAILED\n",
      reports.size(), loads, stores, bad);
  return bad ? 1 : 0;
}

void usage() {
  std::printf(
      "usage: cats_analyze [--mc] [--minimality] [--footprint] [--sweep] "
      "[--verbose]\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool mc = false;
  bool minimality = false;
  bool footprint = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--mc")) {
      mc = true;
    } else if (!std::strcmp(argv[i], "--minimality")) {
      minimality = true;
    } else if (!std::strcmp(argv[i], "--footprint")) {
      footprint = true;
    } else if (!std::strcmp(argv[i], "--sweep")) {
      mc = minimality = footprint = true;
    } else if (!std::strcmp(argv[i], "--verbose")) {
      verbose = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!mc && !minimality && !footprint) {
    usage();
    return 2;
  }
  int rc = 0;
  auto merge = [&rc](int r) {
    if (r > rc) rc = r;
  };
  if (mc) merge(run_mc(verbose));
  if (minimality) merge(run_minimality(verbose));
  if (footprint) merge(run_footprint(verbose));
  if (rc == 0) std::printf("cats_analyze: all checks passed\n");
  return rc;
}
