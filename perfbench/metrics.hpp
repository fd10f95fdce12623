#pragma once
// Arithmetic of the benchmark's reported figures, kept free of the library
// so selftest.cpp can check it on synthetic inputs:
//
//  - percentile(): linear interpolation between order statistics;
//  - tail_percentile(): the reporting rule for timings — the highest of the
//    standard percentiles that still has at least ten samples beyond it;
//  - Tally: attempted / failed operation accounting behind failed_frac;
//  - window_rates(): summed throughput of concurrent work items per time
//    window (serve_mix's glups);
//  - self_times(): a span's duration minus the part of its interval that its
//    child spans cover (children may nest or overlap each other).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// p-th percentile (p in [0, 100]) of `v`, interpolating linearly between
/// the two nearest order statistics. 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Samples a reported tail percentile must leave above it.
inline constexpr std::size_t kMinBeyond = 10;

/// Highest of 99.9 / 99 / 95 / 90 / 75 that leaves at least kMinBeyond of
/// `n` samples above it, i.e. n * (100 - p) / 100 >= kMinBeyond.
/// 0 when even p75 is unsupported (fewer than 40 samples).
inline double tail_percentile(std::size_t n) {
  // Tenths of a percent, so the test is exact integer arithmetic.
  static constexpr int kCandidates[] = {999, 990, 950, 900, 750};
  for (const int p10 : kCandidates) {
    if (n * static_cast<std::size_t>(1000 - p10) >= kMinBeyond * 1000)
      return p10 / 10.0;
  }
  return 0.0;
}

/// A timing as the benchmark reports it: sample count, median, and the tail
/// percentile tail_percentile() allows (tail_p == 0: none supported).
struct Timing {
  std::size_t n = 0;
  double median = 0.0;
  double tail_p = 0.0;
  double tail = 0.0;
};

inline Timing summarize(const std::vector<double>& v) {
  Timing t;
  t.n = v.size();
  t.median = median(v);
  t.tail_p = tail_percentile(v.size());
  if (t.tail_p > 0.0) t.tail = percentile(v, t.tail_p);
  return t;
}

/// Correctness accounting: every checked operation is attempted once and
/// fails at most once (a checksum mismatch, or a job that is not Done).
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  }
};

/// An amount of work done over [start, end] (seconds since a common epoch).
struct Work {
  double start = 0.0;
  double end = 0.0;
  double amount = 0.0;
};

/// Work per second in each window [i * w, (i + 1) * w), i < n: every item's
/// amount is spread evenly over its interval, so concurrent items add up and
/// an item crossing a window boundary counts in both in proportion. An item
/// with an empty interval counts in the window of its end.
inline std::vector<double> window_rates(const std::vector<Work>& items,
                                        double w, std::size_t n) {
  std::vector<double> sum(n, 0.0);
  for (const Work& it : items) {
    const double len = it.end - it.start;
    if (len <= 0.0) {
      const auto i = static_cast<std::size_t>(std::max(0.0, it.end / w));
      if (i < n) sum[i] += it.amount;
      continue;
    }
    const auto first = static_cast<std::size_t>(std::max(0.0, it.start / w));
    for (std::size_t i = first; i < n && static_cast<double>(i) * w < it.end;
         ++i) {
      const double a = std::max(it.start, static_cast<double>(i) * w);
      const double b = std::min(it.end, static_cast<double>(i + 1) * w);
      if (b > a) sum[i] += it.amount * (b - a) / len;
    }
  }
  for (double& s : sum) s /= w;
  return sum;
}

/// One recorded span. `parent` is the id of the enclosing span (-1 = root);
/// `req` groups the spans of one request (serve jobs), -1 when unused.
struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t req = -1;
};

/// Layer of a span: its name up to the first '.' ("plan.emit" -> "plan").
inline std::string span_layer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Self time of every span (same order as `spans`): its duration minus the
/// length of the union of its children's intervals clipped to its own.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[it->second].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

/// Self seconds summed per layer.
inline std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[span_layer(spans[i].name)] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

}  // namespace perfbench
