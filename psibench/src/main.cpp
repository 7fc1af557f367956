/// \file main.cpp
/// \brief psibench driver: runs one workload with a seed and prints its
/// metrics as the last stdout line.
///
///   psibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            [--out-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
///
/// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
/// runs every workload's traced pass and direct layer replays and reports
/// the per-layer metrics, plus trace.overhead_frac of the named workload.
/// Spans and a result file (provenance + metrics) go to --out-dir. The exit
/// code is 0 only when every output check passed.
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace psibench;

/// Set-ups per measured run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Length of the replay_s phase as a share of the measured seconds.
constexpr double kReplayShare = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/psibench-results";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "psibench: %s\nusage: psibench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha "
               "<sha>] [--source-digest <hex>]\n",
               problem.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == args.workload;
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.trace < 0) usage("--trace must be 0 or 1");
  return args;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// End-to-end metrics of one measured run (tracing off). replay_s is the
/// mean round over all bursts: a round that lands in a slow spell of the
/// host shifts it in proportion, not all or nothing.
std::vector<Metric> measured_run(const Args& args, Outcome& outcome) {
  const std::unique_ptr<Workload> workload = make_workload(args.workload);
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    workload->setup(args.seed, args.seconds, nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  PassResult pass;
  std::vector<double> rounds;
  const int segments = workload->segments();
  for (int k = 1; k <= segments; ++k) {
    const std::int64_t min_ok = (kMinRequests * k + segments - 1) / segments;
    const PassResult part = workload->measure(
        args.seconds / segments, std::max<std::int64_t>(0, min_ok - pass.ok),
        outcome);
    pass.latency_s.insert(pass.latency_s.end(), part.latency_s.begin(),
                          part.latency_s.end());
    pass.ok += part.ok;
    pass.wall_s += part.wall_s;
    const std::vector<double> burst =
        workload->replay_rounds(kReplayShare * args.seconds / segments, outcome);
    rounds.insert(rounds.end(), burst.begin(), burst.end());
  }
  workload->verify(outcome);
  std::printf("# %s: %zu latency samples (%zu beyond p95), %lld ok in %.3f s\n",
              args.workload.c_str(), pass.latency_s.size(),
              samples_beyond(pass.latency_s.size(), 0.95),
              static_cast<long long>(pass.ok), pass.wall_s);
  return {
      {"latency_p50_ms", workload->p50(pass) * 1e3, "ms"},
      {"latency_p95_ms", workload->p95(pass) * 1e3, "ms"},
      {"throughput_rps", static_cast<double>(pass.ok) / pass.wall_s, "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"replay_s", mean(rounds), "s"},
  };
}

/// Per-layer metrics: every workload's traced pass and layer replays; the
/// named workload's fixed pass also runs untraced first for the overhead.
std::vector<Metric> traced_run(const Args& args, Outcome& outcome) {
  Trace trace(/*enabled=*/true);
  std::vector<Metric> metrics;
  double overhead = 0.0;
  for (const std::string& name : workload_names()) {
    const std::unique_ptr<Workload> workload = make_workload(name);
    workload->setup(args.seed, /*seconds=*/0.0, &trace);  // no measured loop
    if (name == args.workload) {
      const PassResult plain = workload->fixed_pass(nullptr, outcome);
      const PassResult traced = workload->fixed_pass(&trace, outcome);
      overhead = workload->overhead_basis(traced) /
                     workload->overhead_basis(plain) -
                 1.0;
    } else {
      workload->fixed_pass(&trace, outcome);
    }
    workload->layer_metrics(trace, outcome, metrics);
  }
  metrics.push_back({"trace.overhead_frac", overhead, "ratio"});
  const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".ndjson";
  trace.write_ndjson(path);
  std::printf("# spans written to %s\n", path.c_str());
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Provenance provenance;
  provenance.git_sha = args.git_sha;
  provenance.source_digest = args.source_digest;
  provenance.workload = args.workload;
  provenance.seed = args.seed;
  provenance.seconds = args.seconds;
  provenance.trace = args.trace == 1;
  const std::string provenance_line = provenance_json(provenance);
  std::printf("%s\n", provenance_line.c_str());

  try {
    std::filesystem::create_directories(args.out_dir);
    Outcome outcome;
    const std::vector<Metric> metrics = args.trace == 1
                                            ? traced_run(args, outcome)
                                            : measured_run(args, outcome);
    for (const Metric& m : metrics)
      std::printf("# %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string& reason : outcome.reasons())
      std::fprintf(stderr, "psibench: FAILED %s\n", reason.c_str());
    const bool correct = outcome.failed() == 0;
    const std::string result =
        result_json(correct, outcome.attempted(), outcome.failed(), metrics);
    const std::string path = args.out_dir + "/result-" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace) + ".json";
    std::ofstream(path) << provenance_line << "\n" << result << "\n";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "psibench: %s\n", e.what());
    return 2;
  }
}
