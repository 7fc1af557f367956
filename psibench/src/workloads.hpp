/// \file workloads.hpp
/// \brief The four psibench workloads. Each drives psi only through its
/// public entry points and attributes time to layers by timing its own
/// calls into them.
///
/// A workload is set up (inputs, references, service, plans), then either
///  * measured: a closed loop for the run's seconds with tracing off, giving
///    the end-to-end metrics, plus a sequential library replay of one round;
///  * or traced: a fixed-count pass with spans around each request, then a
///    direct replay of each layer's public calls, giving per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace psibench {

/// What one pass of a workload produced.
struct PassResult {
  /// Per completed request (des_replay: per scheme replay), seconds.
  std::vector<double> latency_s;
  double wall_s = 0.0;
  std::int64_t ok = 0;
};

/// Requests a measured pass completes at least, so the p95 has ten samples
/// beyond it.
inline constexpr std::int64_t kMinRequests = 200;

/// Requests per block of the reported latency_p50 (see blocked_mean). A
/// multiple of each catalog's cycle (three structures), so every block
/// holds the same mix.
inline constexpr std::size_t kP50Block = 12;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, references, the service and its plans from `seed`,
  /// replacing any earlier setup, for a measured loop of `seconds` (0: the
  /// fixed-count passes only). `trace` (may be null) receives setup spans.
  virtual void setup(std::uint64_t seed, double seconds, Trace* trace) = 0;

  /// Measured segments per run. The run alternates a closed-loop segment
  /// with a replay burst, so both sample the machine across the whole run.
  virtual int segments() const { return 4; }

  /// One measured closed-loop segment: runs for `seconds` and until
  /// `min_ok` requests completed, continuing the request sequence of the
  /// previous segment. Checks every response into `outcome`.
  virtual PassResult measure(double seconds, std::int64_t min_ok,
                             Outcome& outcome) = 0;

  /// Checks that need the whole pass (dense-reference tolerance, DES
  /// protocol invariants); runs after measure().
  virtual void verify(Outcome& outcome) = 0;

  /// Seconds of rounds of the workload's work as direct single-threaded
  /// library calls — no service, no thread pool — run for `budget` seconds
  /// (replay_s is their mean).
  virtual std::vector<double> replay_rounds(double budget,
                                            Outcome& outcome) = 0;

  /// Reported latency_p50: the mean median of blocks of kP50Block requests.
  virtual double p50(const PassResult& pass) const;

  /// Reported latency_p95: the mean resolved p95 of as many equal blocks of
  /// requests as leave at least kMinRequests in each.
  virtual double p95(const PassResult& pass) const;

  /// Fixed-count pass used by the traced run (spans when `trace` is set).
  virtual PassResult fixed_pass(Trace* trace, Outcome& outcome) = 0;

  /// Direct replay of each layer's public calls under spans, then the
  /// per-layer metrics derived from `trace`.
  virtual void layer_metrics(Trace& trace, Outcome& outcome,
                             std::vector<Metric>& out) = 0;

  /// The end-to-end figure trace.overhead_frac compares: the fixed pass's
  /// median latency.
  virtual double overhead_basis(const PassResult& pass) const;
};

std::vector<std::string> workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace psibench
