#pragma once
// In-memory span recorder for the traced benchmark run.
//
// ScopedSpan wraps one call into a library module; its name is
// "<layer>.<call>" with the layer named after the module (grid, kernels,
// core, plan, serve, bench_harness, naive). The parent is the span open on
// the same thread when it starts. Nothing is recorded unless the tracer is
// enabled, so the untraced run pays one branch per wrapped call. Spans stay
// in memory and are written once, at exit, as Chrome trace-event JSON
// (viewable in chrome://tracing or Perfetto).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  // order: relaxed — toggled by the main thread only while no other thread
  // records spans; thread creation orders it for workers started later.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  std::int64_t next_id() {
    // order: relaxed — ids only need to be unique.
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(Span s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Small dense id of the calling thread (for the trace's tid field).
  static int thread_index() {
    static std::atomic<int> next{0};
    // order: relaxed — only uniqueness matters.
    thread_local const int idx = next.fetch_add(1, std::memory_order_relaxed);
    return idx;
  }

  /// Write every recorded span as Chrome trace-event JSON ("X" complete
  /// events; args carry the span id, parent id, end and request id).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"end_us\":%.3f,\"req\":%lld}}%s\n",
                   s.name.c_str(), span_layer(s.name).c_str(), s.tid,
                   s.start_ns * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.end_ns * 1e-3,
                   static_cast<long long>(s.req),
                   i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  /// Parent stack of the calling thread.
  static std::vector<std::int64_t>& stack() {
    thread_local std::vector<std::int64_t> s;
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t req = -1) {
    Tracer& tr = Tracer::get();
    if (!tr.enabled()) return;
    active_ = true;
    s_.name = name;
    s_.req = req;
    s_.id = tr.next_id();
    auto& st = Tracer::stack();
    s_.parent = st.empty() ? -1 : st.back();
    s_.tid = Tracer::thread_index();
    st.push_back(s_.id);
    s_.start_ns = tr.now_ns();
  }
  ~ScopedSpan() {
    if (!active_) return;
    Tracer& tr = Tracer::get();
    s_.end_ns = tr.now_ns();
    Tracer::stack().pop_back();
    tr.add(std::move(s_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span s_;
};

/// Durations (seconds) of every recorded span with this exact name.
inline std::vector<double> span_seconds(const std::vector<Span>& spans,
                                        const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
  return out;
}

}  // namespace perfbench
