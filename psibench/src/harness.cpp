#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace psibench {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const std::size_t rank =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double blocked_mean(const std::vector<double>& values, std::size_t block,
                    const std::function<double(std::vector<double>)>& stat) {
  const std::size_t blocks = block == 0 ? 0 : values.size() / block;
  if (blocks == 0) throw std::runtime_error("blocked statistic of no full block");
  double sum = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(b * block);
    sum += stat(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(block)));
  }
  return sum / static_cast<double>(blocks);
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

double resolved_percentile(const std::vector<double>& values, double q,
                           std::size_t min_beyond) {
  const std::size_t beyond = samples_beyond(values.size(), q);
  if (beyond < min_beyond) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "p%g unresolved: %zu samples leave %zu beyond it, need %zu",
                  100.0 * q, values.size(), beyond, min_beyond);
    throw std::runtime_error(buf);
  }
  return nearest_rank(values, q);
}

// --- Outcome -------------------------------------------------------------------

void Outcome::fail(const std::string& reason) {
  ++failed_;
  reasons_.push_back(reason);
}

bool Outcome::check_digest(const std::string& what, const std::string& got,
                           const std::string& want) {
  attempt();
  if (got == want) return true;
  fail(what + ": digest " + got + " != reference " + want);
  return false;
}

bool Outcome::check_within(const std::string& what, double value,
                           double limit) {
  if (value <= limit) return true;  // NaN fails too
  char buf[96];
  std::snprintf(buf, sizeof(buf), ": %.3e exceeds %.1e", value, limit);
  fail(what + buf);
  return false;
}

// --- Trace ---------------------------------------------------------------------

std::int64_t Trace::open(const std::string& name, std::int64_t request,
                         std::int64_t parent) {
  if (!enabled_) return -1;
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = now;
  span.end = -1.0;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::close(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::int64_t Trace::record(const std::string& name, std::int64_t request,
                           Clock::time_point start, Clock::time_point end,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = seconds_between(origin_, start);
  span.end = seconds_between(origin_, end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += value;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name && span.end >= 0.0) out.push_back(span.seconds());
  return out;
}

std::map<std::int64_t, double> Trace::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, double> child_cover;  // span id -> covered seconds
  for (const Span& span : spans_)
    if (span.parent >= 0 && span.end >= 0.0)
      child_cover[span.parent] += span.seconds();
  std::map<std::int64_t, double> out;
  for (const Span& span : spans_) {
    if (span.name != name || span.end < 0.0) continue;
    const auto cover = child_cover.find(span.id);
    out[span.request] += span.seconds() -
                         (cover == child_cover.end() ? 0.0 : cover->second);
  }
  return out;
}

std::map<std::int64_t, double> Trace::by_request(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, double> out;
  for (const Span& span : spans_)
    if (span.name == name && span.end >= 0.0)
      out[span.request] += span.seconds();
  return out;
}

void Trace::write_ndjson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char buf[96];
  for (const Span& span : spans_) {
    std::snprintf(buf, sizeof(buf), "%.9f,\"end\":%.9f", span.start, span.end);
    out << "{\"span\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"name\":\""
        << json_escape(span.name) << "\",\"start\":" << buf << "}\n";
  }
  for (const auto& [name, value] : counts_) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << "{\"count\":\"" << json_escape(name) << "\",\"value\":" << buf
        << "}\n";
  }
}

// --- results -------------------------------------------------------------------

namespace {

long cache_bytes(int name) {
  const long value = sysconf(name);
  return value > 0 ? value : 0;
}

}  // namespace

std::string provenance_json(const Provenance& p) {
  char seed[32];
  std::snprintf(seed, sizeof(seed), "%llu",
                static_cast<unsigned long long>(p.seed));
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.17g", p.seconds);
  std::string out = "{\"provenance\":{";
  out += "\"git_sha\":\"" + json_escape(p.git_sha) + "\"";
  out += ",\"source_digest\":\"" + json_escape(p.source_digest) + "\"";
  out += ",\"compiler\":\"" + json_escape(PSIBENCH_COMPILER) + "\"";
  out += ",\"build_type\":\"" + json_escape(PSIBENCH_BUILD_TYPE) + "\"";
  out += ",\"cxx_flags\":\"" + json_escape(PSIBENCH_CXX_FLAGS) + "\"";
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"l2_bytes\":" + std::to_string(cache_bytes(_SC_LEVEL2_CACHE_SIZE));
  out += ",\"l3_bytes\":" + std::to_string(cache_bytes(_SC_LEVEL3_CACHE_SIZE));
  out += ",\"workload\":\"" + json_escape(p.workload) + "\"";
  out += std::string(",\"seed\":") + seed;
  out += std::string(",\"seconds\":") + seconds;
  out += std::string(",\"trace\":") + (p.trace ? "true" : "false");
  out += "}}";
  return out;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not finite");
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + json_escape(m.name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace psibench
