#pragma once
// Measurement plumbing of the end-to-end benchmark: run arguments, the
// metric sink, sample statistics, the correctness gate, the in-memory span
// recorder and the counting allocator's switch.  Everything here observes
// the qmg library from outside; nothing reaches into src/.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 4;
  // Tiny lattice, one timed job, no warm-up: the schema and gate check.
  bool smoke = false;
  std::string trace_out;  // Chrome trace-event JSON (traced runs)
  std::string tune_out;   // tune cache saved at exit (traced runs)
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile by linear interpolation between order statistics (q in [0,1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
inline double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

struct Metric {
  double value = 0;
  std::string unit;
};
/// Every metric a run measured, end-to-end and per-layer alike; main()
/// prints the set the run's mode asks for.
using Metrics = std::map<std::string, Metric>;

/// The correctness gate: every verified output counts as attempted, every
/// miss as failed, and the first few misses are kept for the log.
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (misses_.size() < 16) misses_.push_back(what);
  }
  /// A check that is not an attempted output (e.g. a correlator shape
  /// test): a miss counts as failed without adding to attempted.
  void require(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_;
    if (misses_.size() < 16) misses_.push_back(what);
  }
  /// Keeps the largest value seen per name (margins of the checks).
  void observe(const std::string& name, double v) {
    auto [it, fresh] = worst_.emplace(name, v);
    if (!fresh) it->second = std::max(it->second, v);
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::vector<std::string>& misses() const { return misses_; }
  const std::map<std::string, double>& worst() const { return worst_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> misses_;
  std::map<std::string, double> worst_;
};

/// In-memory span recorder.  Spans carry (name, start, end, parent, job,
/// thread); the parent is the innermost open span of the same thread.  Off
/// unless enabled, and then a span costs one clock read at each end plus a
/// vector push under a mutex.  Written once, at exit, as Chrome trace-event
/// JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0, t1 = 0;  // seconds since the tracer's epoch
    int parent = -1;
    int job = -1;
    int tid = 0;
  };

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  int begin(const std::string& name, int job);
  void end(int id);

  /// Self time per span name: each span's duration minus the part of its
  /// interval its children cover, summed by name.
  std::map<std::string, double> self_seconds() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int job)
      : t_(t), id_(t.enabled() ? t.begin(name, job) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Counting allocator (alloc_count.cpp replaces the global operator
/// new/delete).  Counting is off by default; when off, an allocation pays
/// one relaxed atomic load.
struct AllocCounts {
  long count = 0;
  long bytes = 0;
};
void set_alloc_counting(bool on);
AllocCounts alloc_counts();
void reset_alloc_counts();

}  // namespace perfbench
