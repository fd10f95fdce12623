// Self-test of the benchmark's own arithmetic (metrics.hpp): the percentile
// reporting rule, span self time over nested and overlapping children,
// windowed throughput and failed_frac accounting. Exits nonzero on the first
// failed check; run.py runs it after every build, before any measurement.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "metrics.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "selftest: %s:%d: CHECK(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                                      \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Span;

Span span(std::int64_t id, std::int64_t parent, std::int64_t a,
          std::int64_t b) {
  Span s;
  s.name = "layer.s" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void test_percentile_rule() {
  using perfbench::tail_percentile;
  // Fewer than 40 samples: not even p75 has ten beyond it.
  CHECK(tail_percentile(0) == 0.0);
  CHECK(tail_percentile(39) == 0.0);
  CHECK(tail_percentile(40) == 75.0);
  CHECK(tail_percentile(99) == 75.0);
  CHECK(tail_percentile(100) == 90.0);
  CHECK(tail_percentile(199) == 90.0);
  CHECK(tail_percentile(200) == 95.0);
  CHECK(tail_percentile(999) == 95.0);
  CHECK(tail_percentile(1000) == 99.0);
  CHECK(tail_percentile(10000) == 99.9);

  // Interpolation between order statistics; input order is irrelevant.
  std::vector<double> v{5, 1, 4, 2, 3};
  CHECK(near(perfbench::percentile(v, 0), 1.0));
  CHECK(near(perfbench::percentile(v, 50), 3.0));
  CHECK(near(perfbench::percentile(v, 100), 5.0));
  CHECK(near(perfbench::percentile(v, 90), 4.6));
  CHECK(near(perfbench::median({1, 2, 3, 4}), 2.5));
  CHECK(perfbench::percentile({}, 50) == 0.0);

  // summarize: 100 samples 1..100 -> p90 supported, value 90.1.
  std::vector<double> w;
  for (int i = 1; i <= 100; ++i) w.push_back(i);
  const perfbench::Timing t = perfbench::summarize(w);
  CHECK(t.n == 100);
  CHECK(near(t.median, 50.5));
  CHECK(t.tail_p == 90.0);
  CHECK(near(t.tail, 90.1));
  CHECK(perfbench::summarize({1.0, 2.0}).tail_p == 0.0);
}

void test_self_time() {
  // Root [0,100] with children [10,30] and [20,50] overlapping each other
  // (union 40) and a grandchild [12,18] inside the first child.
  std::vector<Span> s{span(1, -1, 0, 100), span(2, 1, 10, 30),
                      span(3, 1, 20, 50), span(4, 2, 12, 18)};
  auto self = perfbench::self_times(s);
  CHECK(self[0] == 60);  // 100 - |[10,50]|
  CHECK(self[1] == 14);  // 20 - 6
  CHECK(self[2] == 30);  // no children
  CHECK(self[3] == 6);

  // A child reaching past its parent (another thread outliving the caller)
  // only covers the clipped part; disjoint children add up.
  std::vector<Span> c{span(1, -1, 0, 100), span(2, 1, 90, 130),
                      span(3, 1, 0, 10), span(4, 1, 40, 50)};
  self = perfbench::self_times(c);
  CHECK(self[0] == 70);
  CHECK(self[1] == 40);

  // A chain where each step starts where the previous ended (critical-path
  // shape): every span's self time is its own duration.
  std::vector<Span> chain{span(1, -1, 0, 10), span(2, -1, 10, 30),
                          span(3, -1, 31, 60)};
  self = perfbench::self_times(chain);
  CHECK(self[0] == 10 && self[1] == 20 && self[2] == 29);

  // Per-layer sums use the name prefix.
  std::vector<Span> layered{span(1, -1, 0, 100), span(2, 1, 0, 40)};
  layered[0].name = "core.run";
  layered[1].name = "plan.emit";
  const auto by_layer = perfbench::layer_self_seconds(layered);
  CHECK(near(by_layer.at("core"), 60e-9));
  CHECK(near(by_layer.at("plan"), 40e-9));
  CHECK(perfbench::span_layer("serve") == "serve");
}

void test_window_rates() {
  using perfbench::Work;
  // Two concurrent items add up; one crossing a boundary is split in
  // proportion to its time in each window; work past the last window is
  // dropped.
  const std::vector<Work> jobs{{0.0, 1.0, 10.0},
                               {0.5, 1.5, 4.0},
                               {1.5, 2.5, 8.0}};
  auto r = perfbench::window_rates(jobs, 1.0, 2);
  CHECK(r.size() == 2);
  CHECK(near(r[0], 12.0));  // 10 + half of 4
  CHECK(near(r[1], 6.0));   // other half of 4 + half of 8
  // Window width scales the rate; an instantaneous item counts at its end.
  r = perfbench::window_rates({{0.0, 1.0, 10.0}, {0.7, 0.7, 3.0}}, 0.5, 2);
  CHECK(near(r[0], 10.0));  // 5 in 0.5 s
  CHECK(near(r[1], 16.0));  // (5 + 3) in 0.5 s
  CHECK(perfbench::window_rates({}, 1.0, 3) == std::vector<double>(3, 0.0));
}

void test_failed_frac() {
  perfbench::Tally t;
  CHECK(t.failed_frac() == 0.0);  // nothing attempted: no failures
  for (int i = 0; i < 8; ++i) t.record(true);
  t.record(false);  // a checksum mismatch
  t.record(false);  // a job that did not come back Done
  CHECK(t.attempted == 10);
  CHECK(t.failed == 2);
  CHECK(near(t.failed_frac(), 0.2));
  perfbench::Tally u;
  u.record(true);
  u.record(false);
  t.merge(u);
  CHECK(t.attempted == 12);
  CHECK(t.failed == 3);
  CHECK(near(t.failed_frac(), 0.25));
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_window_rates();
  test_failed_frac();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
