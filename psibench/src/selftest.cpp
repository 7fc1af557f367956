/// \file selftest.cpp
/// \brief Self-tests of psibench's own helpers; psibench/run.py runs them
/// before every benchmark run and refuses to measure if one fails.
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"

namespace {

using namespace psibench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what);
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void p95_rule() {
  expect(throws([] { resolved_percentile(ramp(199), 0.95); }),
         "p95 of 199 samples (9 beyond) must be an error");
  expect(!throws([] { resolved_percentile(ramp(200), 0.95); }),
         "p95 of 200 samples (10 beyond) must resolve");
  expect(resolved_percentile(ramp(200), 0.95) == 190.0,
         "p95 of 1..200 is the 190th value");
  expect(samples_beyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
  expect(throws([] { resolved_percentile({}, 0.5); }),
         "a percentile of no samples must be an error");
  expect(median({3.0, 1.0, 2.0, 4.0}) == 2.5, "median of an even sample");
  expect(nearest_rank({5.0, 1.0, 3.0}, 0.95) == 5.0,
         "nearest-rank p95 of three samples is the largest");
}

void blocked_rule() {
  // Two fast blocks and one slow one, then a partial block that is left out.
  const std::vector<double> spells = {1, 2, 3, 1, 2, 3, 7, 8, 9, 100};
  expect(blocked_mean(spells, 3, median) == (2.0 + 2.0 + 8.0) / 3.0,
         "blocked median is the mean of the full blocks' medians");
  expect(throws([] { blocked_mean({1.0, 2.0}, 3, median); }),
         "a blocked statistic with no full block must be an error");
  const auto p95 = [](std::vector<double> v) {
    return resolved_percentile(v, 0.95);
  };
  std::vector<double> two = ramp(200);
  for (double& v : two) v += 1000.0;
  const std::vector<double> first = ramp(200);
  two.insert(two.begin(), first.begin(), first.end());
  expect(blocked_mean(two, 200, p95) == (190.0 + 1190.0) / 2.0,
         "blocked p95 is the mean of the blocks' p95s");
  expect(throws([&] { blocked_mean(two, 199, p95); }),
         "a block of 199 samples cannot resolve its p95");
}

void failure_accounting() {
  Outcome outcome;
  outcome.check_digest("clean", "00ff", "00ff");
  outcome.check_digest("planted", "00ff", "ff00");  // planted mismatch
  outcome.check_within("tolerance", 1e-12, 1e-8);
  outcome.check_within("planted tolerance", 1e-3, 1e-8);
  expect(outcome.attempted() == 2, "two digest checks are two attempts");
  expect(outcome.failed() == 2, "planted mismatches are counted");
  expect(outcome.reasons().size() == 2 &&
             outcome.reasons()[0].find("planted") != std::string::npos,
         "a planted mismatch keeps its reason");
  const std::string line = result_json(outcome.failed() == 0, outcome.attempted(),
                                       outcome.failed(), {{"x_ms", 1.5, "ms"}});
  expect(line.find("\"correct\": false") != std::string::npos &&
             line.find("\"failed\": 2") != std::string::npos,
         "the result line reports the planted failures");
  expect(throws([] {
           result_json(true, 1, 0,
                       {{"nan", std::numeric_limits<double>::quiet_NaN(), "ms"}});
         }),
         "a non-finite metric must be an error");
}

void seed_determinism() {
  const auto warm_bytes = [](std::uint64_t seed) {
    std::string out;
    for (const CatalogEntry& entry : warm_catalog())
      for (int v = 0; v < 2; ++v)
        out += matrix_bytes(
            with_values(entry.gen.matrix, seed, 0, v, psi::ValueKind::kSymmetric));
    return out;
  };
  const auto nsym_bytes = [](std::uint64_t seed) {
    std::string out;
    for (const CatalogEntry& entry : nsym_catalog())
      out += matrix_bytes(with_values(entry.gen.matrix, seed, 100, 1,
                                      psi::ValueKind::kUnsymmetric));
    return out;
  };
  const auto cold_bytes = [](std::uint64_t seed) {
    std::string out;
    for (const psi::SparseMatrix& m : cold_requests(seed, 40))
      out += matrix_bytes(m);
    return out;
  };
  expect(warm_bytes(7) == warm_bytes(7), "warm requests repeat for a seed");
  expect(warm_bytes(7) != warm_bytes(8), "warm requests differ across seeds");
  expect(nsym_bytes(7) == nsym_bytes(7), "nsym requests repeat for a seed");
  expect(nsym_bytes(7) != nsym_bytes(8), "nsym requests differ across seeds");
  expect(cold_bytes(7) == cold_bytes(7), "cold requests repeat for a seed");
  expect(cold_bytes(7) != cold_bytes(8), "cold requests differ across seeds");

  std::set<std::string> patterns;
  for (const psi::SparseMatrix& m : cold_requests(7, 200)) {
    psi::SparseMatrix pattern_only = m;
    pattern_only.values.clear();
    patterns.insert(matrix_bytes(pattern_only));
  }
  expect(patterns.size() == 200, "every cold request has a new pattern");
}

}  // namespace

int main() {
  p95_rule();
  blocked_rule();
  failure_accounting();
  seed_determinism();
  if (failures != 0) {
    std::fprintf(stderr, "psibench selftest: %d failures\n", failures);
    return 1;
  }
  std::fprintf(stderr, "psibench selftest: ok\n");
  return 0;
}
