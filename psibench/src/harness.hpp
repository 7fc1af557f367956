/// \file harness.hpp
/// \brief psibench scaffolding: percentiles with the ten-samples-beyond
/// rule, failure accounting, in-memory spans, provenance, and the one-line
/// JSON result.
///
/// Nothing here calls into psi; the workloads (workloads.hpp) time their
/// own calls into psi's public functions and record them through Trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace psibench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- statistics --------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of a non-empty sample: the value at
/// 1-based rank ceil(q * n), or the minimum for q == 0.
double nearest_rank(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Mean over the consecutive full blocks of `block` samples (in sample
/// order; a partial last block is left out) of `stat` of each block. When
/// the host alternates between fast and slow spells, a pooled quantile
/// jumps from one spell's latency to the other's as the slow share of the
/// run crosses a threshold; this moves in proportion to the share. Throws
/// when no block is full.
double blocked_mean(const std::vector<double>& values, std::size_t block,
                    const std::function<double(std::vector<double>)>& stat);

/// Samples that lie strictly beyond the nearest-rank q-quantile's rank.
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank q-quantile that insists on at least `min_beyond` samples
/// beyond it (the benchmark reports only percentiles it can resolve);
/// throws std::runtime_error otherwise. q = 0.95 needs n >= 200.
double resolved_percentile(const std::vector<double>& values, double q,
                           std::size_t min_beyond = 10);

// --- failure accounting ------------------------------------------------------

/// Attempted operations and the ones that failed — a request that errors,
/// returns a non-OK status, or fails an output check. Every failure is kept
/// with its reason; nothing is dropped.
class Outcome {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& reason);
  /// Counts one attempt; fails it unless `got == want`.
  bool check_digest(const std::string& what, const std::string& got,
                    const std::string& want);
  /// Fails (without a new attempt) when `value` exceeds `limit`.
  bool check_within(const std::string& what, double value, double limit);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

// --- spans -------------------------------------------------------------------

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< enclosing span id, -1 for a root
  std::int64_t request = -1;  ///< request the span belongs to, -1 for none
  std::string name;
  double start = 0.0;  ///< seconds since the trace was created
  double end = 0.0;

  double seconds() const { return end - start; }
};

/// In-memory span and count recorder. Spans are kept until write_ndjson()
/// at exit. Thread-safe; a disabled trace records nothing.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its id (-1 when disabled).
  std::int64_t open(const std::string& name, std::int64_t request,
                    std::int64_t parent = -1);
  void close(std::int64_t id);
  /// Records an already-measured interval as a closed span.
  std::int64_t record(const std::string& name, std::int64_t request,
                      Clock::time_point start, Clock::time_point end,
                      std::int64_t parent = -1);
  void count(const std::string& name, double value);

  /// Durations (seconds) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Duration of the closed span `name` of `request` minus the part its
  /// direct children cover (the span's self time), per request, in request
  /// order.
  std::map<std::int64_t, double> self_seconds(const std::string& name) const;
  /// Total duration of spans `name` per request.
  std::map<std::int64_t, double> by_request(const std::string& name) const;

  void write_ndjson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span over a scope; a no-op on a null or disabled trace.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name, std::int64_t request,
             std::int64_t parent = -1)
      : trace_(trace),
        id_(trace != nullptr ? trace->open(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Trace* trace_;
  std::int64_t id_;
};

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Build and machine facts attached to every result.
struct Provenance {
  std::string git_sha;
  std::string source_digest;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Provenance plus compiler, build type, flags, nproc and L2/L3 sizes.
std::string provenance_json(const Provenance& provenance);

/// The benchmark's final stdout line: exactly correct / attempted / failed
/// / metrics. Throws on a non-finite metric value.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& metrics);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace psibench
