#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iterator>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/parallel.hpp"
#include "driver/experiment.hpp"
#include "driver/paper_matrices.hpp"
#include "inputs.hpp"
#include "nsym/factor.hpp"
#include "nsym/selinv.hpp"
#include "nsym/structure.hpp"
#include "numeric/selinv.hpp"
#include "numeric/supernodal_lu.hpp"
#include "ordering/ordering.hpp"
#include "pselinv/engine.hpp"
#include "pselinv/plan.hpp"
#include "pselinv/volume_analysis.hpp"
#include "serve/plan_cache.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "sparse/dense.hpp"
#include "symbolic/analysis.hpp"

namespace psibench {
namespace {

using psi::Int;
using psi::serve::Request;
using psi::serve::Response;

/// Request values per catalog structure; request i of a structure uses
/// value set i mod kValueSets, so consecutive requests never repeat values.
constexpr int kValueSets = 4;
/// Threads the benchmark's own set-up work (references) runs on; the
/// workloads themselves stay within the machine's four cores too.
constexpr int kSetupThreads = 4;
/// Compute threads of the measured numeric paths (warm_selinv, nsym_selinv).
/// One, so a solve needs a single core of the host: with 3 threads, a 4-vCPU
/// host shared with other load spread the median latency of ten runs by
/// 30-57% (interquartile range over median), as one preempted thread
/// stalls the whole task graph.
constexpr int kComputeThreads = 1;
// warm_selinv's direct replay mirrors the service's sequential calls, and
// nsym_selinv passes its task graphs no pool.
static_assert(kComputeThreads == 1);
/// Threads of the traced numeric replay behind numeric.*.speedup_3t.
constexpr int kLayerThreads = 3;
/// psi_check's dense-reference tolerance (check/oracle.cpp kRefTolerance):
/// absolute entry gap against the dense inverse.
constexpr double kDenseTolerance = 1e-8;
/// A measured loop stops issuing after this long even if it still lacks
/// kMinRequests (the p95 then reports the shortfall as an error).
constexpr double kHardStopSeconds = 120.0;
/// Time limit of the fixed-count passes (they stop on their count).
constexpr double kUnbounded = std::numeric_limits<double>::infinity();
/// Repetitions of each single-thread layer call in the traced replays.
constexpr int kReplayRounds = 3;

double ms(double seconds) { return seconds * 1e3; }

/// The benchmark's own helper threads (set-up references, replay rounds),
/// kept for the whole process so each run allocates from the same threads.
psi::parallel::ThreadPool& helper_pool() {
  static psi::parallel::ThreadPool pool(kSetupThreads);
  return pool;
}

void run_parallel(std::vector<std::function<void()>>& jobs) {
  psi::parallel::ThreadPool& pool = helper_pool();
  for (std::function<void()>& job : jobs) pool.submit([&job] { job(); });
  pool.wait();
}

/// Seconds of replay rounds, run back to back on the calling thread for
/// `budget` seconds (at least kReplayRounds). One thread, like the measured
/// paths, so the figure needs one free core of the host, not all of them.
std::vector<double> timed_rounds(double budget, Outcome& outcome,
                                 const std::function<double(int, Outcome&)>& round) {
  std::vector<double> seconds;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0;
       r < kReplayRounds || seconds_between(t0, Clock::now()) < budget; ++r)
    seconds.push_back(round(r, outcome));
  return seconds;
}

std::vector<double> values_of(const std::map<std::int64_t, double>& m) {
  std::vector<double> out;
  for (const auto& [key, value] : m) out.push_back(value);
  return out;
}

double median_ms(const std::vector<double>& seconds) {
  return ms(median(seconds));
}

psi::DenseMatrix dense_of(const psi::SparseMatrix& a) {
  psi::DenseMatrix dense(a.n(), a.n());
  for (Int j = 0; j < a.n(); ++j)
    for (Int p = a.pattern.col_ptr[j]; p < a.pattern.col_ptr[j + 1]; ++p)
      dense(a.pattern.row_idx[p], j) = a.values[static_cast<std::size_t>(p)];
  return dense;
}

/// Largest entry gap between the selected blocks of `ainv` (analyzed
/// order, `perm` maps original -> analyzed) and the dense inverse of the
/// original matrix. The symmetric sequential path leaves the upper mirror
/// unset, so upper blocks are compared only when `both_triangles`.
double dense_gap(const psi::BlockMatrix& ainv, const psi::BlockStructure& bs,
                 const psi::Permutation& perm, const psi::DenseMatrix& inverse,
                 bool both_triangles) {
  double gap = 0.0;
  const auto check = [&](Int i, Int k) {
    const psi::DenseMatrix block = ainv.block(i, k);
    const Int r0 = bs.part.first_col(i);
    const Int c0 = bs.part.first_col(k);
    for (Int c = 0; c < block.cols(); ++c)
      for (Int r = 0; r < block.rows(); ++r)
        gap = std::max(gap, std::abs(block(r, c) - inverse(perm.old_of(r0 + r),
                                                           perm.old_of(c0 + c))));
  };
  for (Int k = 0; k < bs.supernode_count(); ++k) {
    check(k, k);
    for (const Int i : bs.struct_of[static_cast<std::size_t>(k)]) {
      check(i, k);
      if (both_triangles) check(k, i);
    }
  }
  return gap;
}

std::string status_reason(const std::string& what, const Response& r) {
  return what + ": status " + psi::serve::status_name(r.status) + " " +
         r.detail;
}

/// When a closed loop stops issuing requests.
struct Limits {
  double seconds = 0.0;             ///< keep issuing until this long ...
  std::int64_t min_ok = 0;          ///< ... and this many completed OK
  std::int64_t max_requests = 0;    ///< never issue more than this
};

/// A psi::serve::Service driven by one closed-loop client. Completion times
/// come from the service's observer hook (called just before each future
/// is fulfilled), so a request that finishes behind an earlier one in the
/// window is not charged the wait.
class ServiceClient {
 public:
  using Make = std::function<Request(std::int64_t index)>;
  using OnResponse =
      std::function<void(std::int64_t index, const Response& response,
                         Clock::time_point start, Clock::time_point done)>;

  explicit ServiceClient(psi::serve::Service::Config config) {
    config.observer = [this](const Response& r) { on_finish(r); };
    service_ = std::make_unique<psi::serve::Service>(config);
  }
  ~ServiceClient() { service_->shutdown(); }
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  psi::serve::Service& service() { return *service_; }

  /// Requests `first`, `first + 1`, ... with at most `window` outstanding.
  PassResult closed_loop(int window, const Limits& limits, std::int64_t first,
                         const Make& make, const OnResponse& on_response) {
    struct Outstanding {
      Clock::time_point start;
      std::future<Response> future;
    };
    std::map<std::int64_t, Outstanding> outstanding;
    PassResult pass;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point last_done = t0;
    std::int64_t issued = 0;
    const auto keep_issuing = [&] {
      const double elapsed = seconds_between(t0, Clock::now());
      if (issued >= limits.max_requests || elapsed >= kHardStopSeconds)
        return false;
      return elapsed < limits.seconds ||
             pass.ok + static_cast<std::int64_t>(outstanding.size()) <
                 limits.min_ok;
    };
    const auto complete = [&](std::int64_t index, Clock::time_point done) {
      const auto it = outstanding.find(index);
      if (it == outstanding.end()) return;
      const Response response = it->second.future.get();
      if (response.ok()) {
        ++pass.ok;
        pass.latency_s.push_back(seconds_between(it->second.start, done));
      }
      last_done = std::max(last_done, done);
      on_response(index, response, it->second.start, done);
      outstanding.erase(it);
    };

    while (true) {
      while (static_cast<int>(outstanding.size()) < window && keep_issuing()) {
        const std::int64_t index = first + issued++;
        Request request = make(index);
        request.id = std::to_string(index);
        const Clock::time_point start = Clock::now();
        outstanding.emplace(index,
                            Outstanding{start, service_->submit(std::move(request))});
      }
      if (outstanding.empty()) break;

      std::deque<std::pair<std::int64_t, Clock::time_point>> done;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::milliseconds(20),
                     [this] { return !done_.empty(); });
        done.swap(done_);
      }
      for (const auto& [index, at] : done) complete(index, at);
      // Admission rejections fulfil the future without calling the
      // observer; the observer runs before the future is fulfilled, so a
      // ready future with no completion queued was never observed.
      std::vector<std::int64_t> rejected;
      for (auto& [index, o] : outstanding) {
        if (o.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
          continue;
        std::lock_guard<std::mutex> lock(mutex_);
        if (std::none_of(done_.begin(), done_.end(),
                         [i = index](const auto& d) { return d.first == i; }))
          rejected.push_back(index);
      }
      for (const std::int64_t index : rejected) complete(index, Clock::now());
    }
    pass.wall_s = seconds_between(t0, last_done);
    return pass;
  }

 private:
  /// Runs on service workers; requests submitted outside closed_loop()
  /// carry no id and are not tracked.
  void on_finish(const Response& r) {
    if (r.id.empty()) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    done_.emplace_back(std::strtoll(r.id.c_str(), nullptr, 10), now);
    cv_.notify_one();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::int64_t, Clock::time_point>> done_;
  std::unique_ptr<psi::serve::Service> service_;  ///< last: observer uses the above
};

/// Request-id bases so spans of different workloads in one trace differ.
constexpr std::int64_t kWarmIds = 1'000'000;
constexpr std::int64_t kColdIds = 2'000'000;
constexpr std::int64_t kDesIds = 3'000'000;
constexpr std::int64_t kNsymIds = 4'000'000;

// --- warm_selinv ----------------------------------------------------------------

class WarmSelinv final : public Workload {
 public:
  void setup(std::uint64_t seed, double, Trace*) override {
    client_.reset();
    structures_.clear();
    const std::vector<CatalogEntry> catalog = warm_catalog();
    structures_.resize(catalog.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      Structure& st = structures_[s];
      st.name = catalog[s].name;
      for (int v = 0; v < kValueSets; ++v)
        st.values.push_back(with_values(catalog[s].gen.matrix, seed, s, v,
                                        psi::ValueKind::kSymmetric));
      st.reference.resize(kValueSets);
      jobs.push_back([&st] {
        st.analysis = std::make_unique<psi::SymbolicAnalysis>(
            psi::analyze(st.values[0], config().plan.analysis));
      });
      jobs.push_back([&st] {
        st.plan = psi::serve::build_serve_plan(st.values[0], config().plan);
      });
    }
    run_parallel(jobs);
    jobs.clear();
    for (Structure& st : structures_)
      for (int v = 0; v < kValueSets; ++v)
        jobs.push_back([&st, v] {
          const psi::SymbolicAnalysis& an = *st.analysis;
          psi::SupernodalLU lu = psi::SupernodalLU::factor(
              an.blocks,
              psi::permute_symmetric(st.values[v], an.perm.old_to_new()));
          st.reference[v] = psi::serve::ainv_digest(psi::selected_inversion(lu));
        });
    run_parallel(jobs);

    client_ = std::make_unique<ServiceClient>(config());
    for (const Structure& st : structures_) {  // plan prebuild
      Request request;
      request.matrix = st.values[0];
      const Response r = client_->service().submit(std::move(request)).get();
      if (!r.ok() || r.digest != st.reference[0])
        throw std::runtime_error("warm_selinv prebuild of " + st.name +
                                 " failed: " + r.detail);
    }
  }

  PassResult measure(double seconds, std::int64_t min_ok,
                     Outcome& outcome) override {
    return pass(Limits{seconds, min_ok, std::numeric_limits<std::int64_t>::max()},
                nullptr, outcome, /*keep_ainv=*/true);
  }

  void verify(Outcome& outcome) override {
    for (const Structure& st : structures_) {
      if (st.checked == nullptr) {
        outcome.fail("warm_selinv " + st.name + ": no inverse to check");
        continue;
      }
      const psi::SymbolicAnalysis& an = st.checked_plan->analysis;
      outcome.check_within("warm_selinv " + st.name + " dense reference",
                           dense_gap(*st.checked, an.blocks, an.perm,
                                     psi::inverse(dense_of(st.values[0])), false),
                           kDenseTolerance);
    }
  }

  std::vector<double> replay_rounds(double budget, Outcome& outcome) override {
    return timed_rounds(budget, outcome, [&](int round, Outcome& checks) {
      double total = 0.0;
      for (const Structure& st : structures_) {
        const int v = round % kValueSets;
        const Clock::time_point t0 = Clock::now();
        psi::SupernodalLU lu = psi::SupernodalLU::factor(
            st.plan->analysis.blocks, [&](psi::BlockMatrix& m) {
              st.plan->scatter_values(st.values[v].values, m);
            });
        const std::string digest =
            psi::serve::ainv_digest(psi::selected_inversion(lu));
        total += seconds_between(t0, Clock::now());
        checks.check_digest("warm_selinv replay " + st.name, digest,
                            st.reference[v]);
      }
      return total;
    });
  }

  PassResult fixed_pass(Trace* trace, Outcome& outcome) override {
    const psi::serve::PlanCache::Stats before = client_->service().cache_stats();
    PassResult result =
        pass(Limits{kUnbounded, 0, kFixedRequests}, trace, outcome, false);
    if (trace != nullptr) {
      const psi::serve::PlanCache::Stats after =
          client_->service().cache_stats();
      traced_hits_ = static_cast<double>(after.hits - before.hits);
      traced_lookups_ = traced_hits_ +
                        static_cast<double>(after.misses - before.misses);
    }
    return result;
  }

  void layer_metrics(Trace& trace, Outcome& outcome,
                     std::vector<Metric>& out) override {
    // The traced requests again as the direct calls the service makes on
    // one compute thread (the sequential kernels): what a request took
    // beyond them is serve overhead.
    std::vector<double> scatter, digest, overhead;
    const std::map<std::int64_t, double> request = trace.by_request("warm.request");
    for (std::int64_t i = 0; i < kReplayedRequests; ++i) {
      const std::size_t s = static_cast<std::size_t>(i) % structures_.size();
      const Structure& st = structures_[s];
      const int v = static_cast<int>(i / static_cast<std::int64_t>(structures_.size())) % kValueSets;
      const std::int64_t id = last_first_id_ + i;
      const Clock::time_point t0 = Clock::now();
      std::int64_t factor_span = trace.open("warm.factor." + st.name, id);
      Clock::time_point s0, s1;
      psi::SupernodalLU lu = psi::SupernodalLU::factor(
          st.plan->analysis.blocks, [&](psi::BlockMatrix& m) {
            s0 = Clock::now();
            st.plan->scatter_values(st.values[v].values, m);
            s1 = Clock::now();
          });
      trace.close(factor_span);
      trace.record("warm.scatter", id, s0, s1, factor_span);
      const Clock::time_point t1 = Clock::now();
      const psi::BlockMatrix ainv = psi::selected_inversion(lu);
      const Clock::time_point t2 = Clock::now();
      trace.record("warm.selinv." + st.name, id, t1, t2);
      const std::string d = psi::serve::ainv_digest(ainv);
      const Clock::time_point t3 = Clock::now();
      trace.record("warm.digest", id, t2, t3);
      outcome.check_digest("warm_selinv direct " + st.name, d, st.reference[v]);
      scatter.push_back(seconds_between(s0, s1));
      digest.push_back(seconds_between(t2, t3));
      const auto req = request.find(id);
      if (req != request.end())
        overhead.push_back(req->second - seconds_between(t0, t3));
    }

    // Per structure: kLayerThreads-way task-parallel rounds for the task
    // graph and the speedup over the sequential calls above.
    psi::parallel::ThreadPool pool(kLayerThreads - 1);
    for (std::size_t s = 0; s < structures_.size(); ++s) {
      const Structure& st = structures_[s];
      psi::numeric::TaskGraphStats stats;
      for (int rep = 0; rep < kReplayRounds; ++rep) {
        const std::int64_t id = kWarmIds + 900'000 + static_cast<std::int64_t>(s * 10) + rep;
        psi::numeric::ParallelOptions opts;
        opts.threads = kLayerThreads;
        opts.pool = &pool;
        stats = {};
        opts.stats = &stats;
        const std::int64_t span = trace.open("warm.parallel." + st.name, id);
        psi::SupernodalLU lu = psi::SupernodalLU::factor_parallel(
            st.plan->analysis.blocks,
            [&](psi::BlockMatrix& m) {
              st.plan->scatter_values(st.values[rep % kValueSets].values, m);
            },
            opts);
        const psi::BlockMatrix ainv = psi::selinv_parallel(lu, opts);
        trace.close(span);
        outcome.check_digest("warm_selinv parallel " + st.name,
                             psi::serve::ainv_digest(ainv),
                             st.reference[rep % kValueSets]);
      }
      const std::string p = "numeric." + st.name + ".";
      // Factor with and without its scatter child, selinv.
      const double factor = median(trace.durations("warm.factor." + st.name));
      const double f1 = median(values_of(trace.self_seconds("warm.factor." + st.name)));
      const double s1 = median(trace.durations("warm.selinv." + st.name));
      const psi::BlockStructure& bs = st.plan->analysis.blocks;
      out.push_back({p + "factor_ms", ms(f1), "ms"});
      out.push_back({p + "selinv_ms", ms(s1), "ms"});
      out.push_back({p + "speedup_3t",
                     (factor + s1) / median(trace.durations("warm.parallel." + st.name)),
                     "x"});
      out.push_back({p + "tasks", static_cast<double>(stats.tasks), "count"});
      out.push_back({p + "ready_high_water",
                     static_cast<double>(stats.ready_high_water), "count"});
      out.push_back({p + "factor_gflops",
                     static_cast<double>(psi::factorization_flops(bs)) / f1 / 1e9,
                     "GF/s"});
      out.push_back({p + "selinv_gflops",
                     static_cast<double>(psi::selinv_flops(bs)) / s1 / 1e9, "GF/s"});
    }
    out.push_back({"serve.scatter_p50_ms", median_ms(scatter), "ms"});
    out.push_back({"serve.digest_p50_ms", median_ms(digest), "ms"});
    out.push_back({"serve.queue_p50_ms", median_ms(traced_queue_s_), "ms"});
    out.push_back({"serve.overhead_p50_ms", median_ms(overhead), "ms"});
    out.push_back({"serve.cache_hit_ratio",
                   traced_lookups_ > 0 ? traced_hits_ / traced_lookups_ : 0.0,
                   "ratio"});
  }

 private:
  struct Structure {
    std::string name;
    std::vector<psi::SparseMatrix> values;  ///< request matrices
    std::vector<std::string> reference;     ///< sequential digest per value set
    std::unique_ptr<psi::SymbolicAnalysis> analysis;  ///< reference analysis
    /// The benchmark's own plan, for the direct layer replays.
    std::shared_ptr<const psi::serve::ServePlan> plan;
    std::shared_ptr<const psi::BlockMatrix> checked;  ///< a response's inverse
    std::shared_ptr<const psi::serve::ServePlan> checked_plan;
  };

  static constexpr std::int64_t kFixedRequests = 48;
  static constexpr std::int64_t kReplayedRequests = 24;

  static psi::serve::Service::Config config() {
    psi::serve::Service::Config config;
    config.workers = 1;
    config.compute_threads = kComputeThreads;
    return config;  // default PlanConfig: ND ordering, supernode cap 96
  }

  PassResult pass(const Limits& limits, Trace* trace, Outcome& outcome,
                  bool keep_ainv) {
    const std::int64_t first = next_id_;
    if (trace != nullptr) {
      last_first_id_ = first;
      traced_queue_s_.clear();
    }
    const std::size_t n = structures_.size();
    std::int64_t issued = 0;
    const auto where = [&](std::int64_t index) {
      const std::int64_t i = index - first;
      return std::make_pair(static_cast<std::size_t>(i) % n,
                            static_cast<int>(i / static_cast<std::int64_t>(n)) %
                                kValueSets);
    };
    PassResult result = client_->closed_loop(
        /*window=*/1, limits, first,
        [&](std::int64_t index) {
          const auto [s, v] = where(index);
          ++issued;
          Request request;
          request.matrix = structures_[s].values[v];
          request.return_ainv = keep_ainv && structures_[s].checked == nullptr;
          return request;
        },
        [&](std::int64_t index, const Response& r, Clock::time_point start,
            Clock::time_point done) {
          const auto [s, v] = where(index);
          Structure& st = structures_[s];
          if (!r.ok()) {
            outcome.attempt();
            outcome.fail(status_reason("warm_selinv " + st.name, r));
            return;
          }
          outcome.check_digest("warm_selinv " + st.name, r.digest,
                               st.reference[v]);
          if (r.ainv != nullptr && st.checked == nullptr) {
            st.checked = r.ainv;
            st.checked_plan = r.plan;
          }
          if (trace != nullptr) {
            trace->record("warm.request", index, start, done);
            traced_queue_s_.push_back(r.queue_seconds);
          }
        });
    next_id_ = first + issued;
    return result;
  }

  std::vector<Structure> structures_;
  std::unique_ptr<ServiceClient> client_;
  std::int64_t next_id_ = kWarmIds;
  std::int64_t last_first_id_ = kWarmIds;
  std::vector<double> traced_queue_s_;
  double traced_hits_ = 0.0;
  double traced_lookups_ = 0.0;
};

// --- cold_plan ------------------------------------------------------------------

class ColdPlan final : public Workload {
 public:
  void setup(std::uint64_t seed, double seconds, Trace*) override {
    client_.reset();
    checked_.reset();
    checked_plan_.reset();
    cursor_ = 0;
    // Room for 80 requests per measured second, above the 40-63 one worker
    // completed at HEAD; a run that exhausts the pool stops early rather
    // than repeat a pattern.
    const std::size_t count = std::max<std::size_t>(
        kMinPool, static_cast<std::size_t>(std::ceil(80.0 * seconds)));
    requests_ = cold_requests(seed, count);
    reference_.assign(count, "");
    std::vector<std::function<void()>> jobs;
    for (int t = 0; t < kSetupThreads; ++t)
      jobs.push_back([this, t, count] {
        for (std::size_t i = static_cast<std::size_t>(t); i < count;
             i += kSetupThreads) {
          const psi::SymbolicAnalysis an =
              psi::analyze(requests_[i], config().plan.analysis);
          psi::SupernodalLU lu = psi::SupernodalLU::factor(an);
          reference_[i] = psi::serve::ainv_digest(psi::selected_inversion(lu));
        }
      });
    run_parallel(jobs);
    client_ = std::make_unique<ServiceClient>(config());
  }

  PassResult measure(double seconds, std::int64_t min_ok,
                     Outcome& outcome) override {
    return pass(Limits{seconds, min_ok,
                       static_cast<std::int64_t>(requests_.size())},
                nullptr, outcome, /*check_first=*/true);
  }

  void verify(Outcome& outcome) override {
    if (checked_ == nullptr) {
      outcome.fail("cold_plan: no inverse to check");
      return;
    }
    const psi::SymbolicAnalysis& an = checked_plan_->analysis;
    outcome.check_within(
        "cold_plan request 0 dense reference",
        dense_gap(*checked_, an.blocks, an.perm,
                  psi::inverse(dense_of(requests_[0])), false),
        kDenseTolerance);
  }

  std::vector<double> replay_rounds(double budget, Outcome& outcome) override {
    return timed_rounds(budget, outcome, [&](int r, Outcome& checks) {
      const std::size_t i = requests_.size() - 1 -
                            static_cast<std::size_t>(r) % requests_.size();
      const Clock::time_point t0 = Clock::now();
      const auto plan = psi::serve::build_serve_plan(requests_[i], config().plan);
      psi::SupernodalLU lu = psi::SupernodalLU::factor(
          plan->analysis.blocks, [&](psi::BlockMatrix& m) {
            plan->scatter_values(requests_[i].values, m);
          });
      const std::string digest =
          psi::serve::ainv_digest(psi::selected_inversion(lu));
      const double seconds = seconds_between(t0, Clock::now());
      checks.check_digest("cold_plan replay", digest, reference_[i]);
      return seconds;
    });
  }

  PassResult fixed_pass(Trace* trace, Outcome& outcome) override {
    return pass(Limits{kUnbounded, 0, kFixedRequests}, trace, outcome, false);
  }

  void layer_metrics(Trace& trace, Outcome& outcome,
                     std::vector<Metric>& out) override {
    const psi::serve::PlanConfig cfg = config().plan;
    const psi::sim::Machine machine(cfg.machine);
    psi::serve::PlanCache::Config cache_config;
    cache_config.capacity_bytes = kCacheBytes;
    psi::serve::PlanCache cache(cache_config);
    std::vector<double> symbolic, supernodes, plan_bytes;
    for (std::int64_t k = 0; k < kReplayedRequests; ++k) {
      const std::size_t i = static_cast<std::size_t>(last_first_ + k);
      const psi::SparseMatrix& m = requests_[i];
      const std::int64_t id = kColdIds + static_cast<std::int64_t>(i);
      Clock::time_point t0 = Clock::now();
      psi::compute_ordering(m.pattern, cfg.analysis.ordering);
      Clock::time_point t1 = Clock::now();
      trace.record("cold.ordering", id, t0, t1);
      const psi::SymbolicAnalysis an = psi::analyze(m, cfg.analysis);
      Clock::time_point t2 = Clock::now();
      trace.record("cold.analyze", id, t1, t2);
      symbolic.push_back(seconds_between(t1, t2) - seconds_between(t0, t1));
      supernodes.push_back(static_cast<double>(an.blocks.supernode_count()));
      const psi::pselinv::Plan plan(
          an.blocks, psi::dist::ProcessGrid(cfg.grid_rows, cfg.grid_cols),
          cfg.tree, cfg.symmetry);
      Clock::time_point t3 = Clock::now();
      trace.record("cold.plan", id, t2, t3);
      const psi::pselinv::RunResult run = psi::pselinv::run_pselinv(
          plan, machine, psi::pselinv::ExecutionMode::kTrace);
      Clock::time_point t4 = Clock::now();
      trace.record("cold.ktrace", id, t3, t4);
      outcome.attempt();
      if (!run.complete() || run.channel_inflight != 0 || run.leaked_timers != 0)
        outcome.fail("cold_plan direct kTrace run incomplete");
      const auto serve_plan = psi::serve::build_serve_plan(m, cfg);
      Clock::time_point t5 = Clock::now();
      trace.record("cold.build_serve_plan", id, t4, t5);
      plan_bytes.push_back(static_cast<double>(serve_plan->bytes));
      psi::SupernodalLU lu = psi::SupernodalLU::factor(
          serve_plan->analysis.blocks, [&](psi::BlockMatrix& b) {
            serve_plan->scatter_values(m.values, b);
          });
      const psi::BlockMatrix ainv = psi::selected_inversion(lu);
      Clock::time_point t6 = Clock::now();
      trace.record("cold.numeric", id, t5, t6);
      outcome.check_digest("cold_plan direct", psi::serve::ainv_digest(ainv),
                           reference_[i]);
      cache.get_or_build(serve_plan->fingerprint, [&] { return serve_plan; });
      trace.record("cold.cache_insert", id, t6, Clock::now());
    }
    const psi::serve::PlanCache::Stats stats = cache.stats();
    trace.count("cold.cache_evictions", static_cast<double>(stats.evictions));
    double supernodes_mean = 0.0;
    for (const double s : supernodes) supernodes_mean += s;
    supernodes_mean /= static_cast<double>(supernodes.size());
    double bytes_mean = 0.0;
    for (const double b : plan_bytes) bytes_mean += b;
    bytes_mean /= static_cast<double>(plan_bytes.size());

    out.push_back({"ordering.p50_ms", median_ms(trace.durations("cold.ordering")), "ms"});
    out.push_back({"symbolic.p50_ms", median_ms(symbolic), "ms"});
    out.push_back({"symbolic.supernodes_mean", supernodes_mean, "count"});
    out.push_back({"trees.plan_p50_ms", median_ms(trace.durations("cold.plan")), "ms"});
    out.push_back({"sim.ktrace_p50_ms", median_ms(trace.durations("cold.ktrace")), "ms"});
    out.push_back({"serve.build_plan_p50_ms",
                   median_ms(trace.durations("cold.build_serve_plan")), "ms"});
    out.push_back({"numeric.cold_p50_ms", median_ms(trace.durations("cold.numeric")), "ms"});
    out.push_back({"serve.cache_evictions", static_cast<double>(stats.evictions), "count"});
    out.push_back({"serve.plan_bytes_mean", bytes_mean, "bytes"});
  }

 private:
  static constexpr std::size_t kMinPool = 300;
  static constexpr std::int64_t kFixedRequests = 60;
  static constexpr std::int64_t kReplayedRequests = 40;
  /// Plan-cache budget: about twenty cold plans, so a run keeps evicting
  /// and its memory stays flat however many requests it completes.
  static constexpr std::size_t kCacheBytes = std::size_t{16} << 20;

  /// bench_serve's committed plan configuration on one single-threaded
/// worker: with two, a host with one free core doubled the p95.
  static psi::serve::Service::Config config() {
    psi::serve::Service::Config config;
    config.workers = 1;
    config.compute_threads = 1;
    config.queue_capacity = 256;
    config.plan.grid_rows = 32;
    config.plan.grid_cols = 32;
    config.plan.machine = psi::driver::timing_machine();
    config.plan.analysis.ordering.method = psi::OrderingMethod::kMinDegree;
    config.plan.analysis.supernodes.max_size = 8;
    config.cache.capacity_bytes = kCacheBytes;
    return config;
  }

  PassResult pass(const Limits& limits, Trace* trace, Outcome& outcome,
                  bool check_first) {
    const std::int64_t first = cursor_;
    Limits bounded = limits;
    bounded.max_requests = std::min<std::int64_t>(
        limits.max_requests, static_cast<std::int64_t>(requests_.size()) - first);
    if (trace != nullptr) last_first_ = first;
    std::int64_t issued = 0;
    PassResult result = client_->closed_loop(
        /*window=*/1, bounded, first,
        [&](std::int64_t index) {
          ++issued;
          Request request;
          request.matrix = requests_[static_cast<std::size_t>(index)];
          request.return_ainv = check_first && index == 0;
          return request;
        },
        [&](std::int64_t index, const Response& r, Clock::time_point start,
            Clock::time_point done) {
          if (!r.ok()) {
            outcome.attempt();
            outcome.fail(status_reason("cold_plan", r));
            return;
          }
          outcome.check_digest("cold_plan", r.digest,
                               reference_[static_cast<std::size_t>(index)]);
          if (r.cache_hit) outcome.fail("cold_plan: cache hit on a new pattern");
          if (r.ainv != nullptr) {
            checked_ = r.ainv;
            checked_plan_ = r.plan;
          }
          if (trace != nullptr)
            trace->record("cold.request", kColdIds + index, start, done);
        });
    cursor_ = first + issued;
    return result;
  }

  std::vector<psi::SparseMatrix> requests_;
  std::vector<std::string> reference_;
  std::shared_ptr<const psi::BlockMatrix> checked_;
  std::shared_ptr<const psi::serve::ServePlan> checked_plan_;
  std::unique_ptr<ServiceClient> client_;
  std::int64_t cursor_ = 0;      ///< next unused request
  std::int64_t last_first_ = 0;  ///< first request of the last traced pass
};

// --- des_replay -----------------------------------------------------------------

struct SchemeRun {
  const char* key;
  psi::trees::TreeScheme scheme;
};
constexpr SchemeRun kSchemes[] = {
    {"flat", psi::trees::TreeScheme::kFlat},
    {"binary", psi::trees::TreeScheme::kBinary},
    {"shifted", psi::trees::TreeScheme::kShiftedBinary}};

class DesReplay final : public Workload {
 public:
  void setup(std::uint64_t seed, double, Trace* trace) override {
    plans_.clear();
    analysis_.reset();
    const psi::GeneratedMatrix gen =
        psi::driver::make_paper_matrix(psi::driver::PaperMatrix::kAudikw1, 0.77);
    psi::AnalysisOptions options = psi::driver::default_analysis_options();
    options.supernodes.max_size = 32;
    ScopedSpan span(trace, "des.analyze_audikw", kDesIds);
    analysis_ = std::make_unique<psi::SymbolicAnalysis>(psi::analyze(gen, options));
    machine_ = psi::driver::timing_machine(0.25, seed);
  }

  /// One segment: the replays are the run.
  int segments() const override { return 1; }

  PassResult measure(double seconds, std::int64_t, Outcome& outcome) override {
    PassResult result;
    replays_.clear();
    const Clock::time_point t0 = Clock::now();
    // One replay takes about 18 s on a 4-core Xeon; a fixed count keeps the
    // work of a run independent of the machine's speed.
    const int count = std::max(1, static_cast<int>(seconds / 20.0));
    for (int r = 0; r < count; ++r) {
      const PassResult one = replay(nullptr, outcome, false);
      result.latency_s.insert(result.latency_s.end(), one.latency_s.begin(),
                              one.latency_s.end());
      result.ok += one.ok;
      replays_.push_back(one.wall_s);
    }
    result.wall_s = seconds_between(t0, Clock::now());
    return result;
  }

  void verify(Outcome&) override {}  // every run is checked as it completes

  /// The three-scheme replays of measure(), Plan builds included.
  std::vector<double> replay_rounds(double, Outcome&) override {
    return replays_;
  }

  /// Three samples per replay, each seconds long: their plain median.
  double p50(const PassResult& pass) const override {
    return median(pass.latency_s);
  }

  /// Three samples per replay: the nearest-rank p95 is the slowest scheme.
  double p95(const PassResult& pass) const override {
    return nearest_rank(pass.latency_s, 0.95);
  }

  PassResult fixed_pass(Trace* trace, Outcome& outcome) override {
    return replay(trace, outcome, trace != nullptr);
  }

  double overhead_basis(const PassResult& pass) const override {
    return pass.wall_s;
  }

  void layer_metrics(Trace& trace, Outcome& outcome,
                     std::vector<Metric>& out) override {
    if (plans_.size() != std::size(kSchemes))
      throw std::logic_error("des_replay: layer metrics need a traced pass");
    for (std::size_t k = 0; k < plans_.size(); ++k) {
      const std::string key = kSchemes[k].key;
      const Clock::time_point t0 = Clock::now();
      const psi::pselinv::VolumeReport volume = psi::pselinv::analyze_volume(*plans_[k]);
      trace.record("des.volume." + key, kDesIds, t0, Clock::now());
      const auto max_over_mean = [](const std::vector<double>& mb) {
        double sum = 0.0, top = 0.0;
        for (const double x : mb) {
          sum += x;
          top = std::max(top, x);
        }
        return top / (sum / static_cast<double>(mb.size()));
      };
      out.push_back({"trees.colbcast_max_over_mean." + key,
                     max_over_mean(volume.col_bcast_sent_mb()), "ratio"});
      out.push_back({"trees.rowreduce_max_over_mean." + key,
                     max_over_mean(volume.row_reduce_received_mb()), "ratio"});
    }
    // Shifted-Binary sequential and on 4 DES partitions, on a smaller
    // audikw_1 analog and a quarter of the ranks: bitwise the same schedule.
    // Each window of the partitioned engine waits for all four threads; on a
    // host that lent the VM fewer free cores, the full-size replay ran 17x
    // slower on 4 partitions than sequential and the traced run neared its
    // time limit.
    psi::AnalysisOptions small_options = psi::driver::default_analysis_options();
    small_options.supernodes.max_size = 32;
    const psi::SymbolicAnalysis small = psi::analyze(
        psi::driver::make_paper_matrix(psi::driver::PaperMatrix::kAudikw1,
                                       kPartitionScale),
        small_options);
    const psi::pselinv::Plan plan(
        small.blocks, psi::dist::ProcessGrid(kPartitionGrid, kPartitionGrid),
        psi::driver::tree_options_for(psi::trees::TreeScheme::kShiftedBinary));
    const auto timed_run = [&](int partitions, const std::string& span) {
      psi::pselinv::RunOptions options;
      options.partitions = partitions;
      const psi::sim::Machine machine(machine_);
      const Clock::time_point t0 = Clock::now();
      psi::pselinv::RunResult run = psi::pselinv::run_pselinv(
          plan, machine, psi::pselinv::ExecutionMode::kTrace, nullptr, nullptr,
          nullptr, options);
      trace.record(span, kDesIds, t0, Clock::now());
      check_run("des_replay " + span, run, outcome);
      return run;
    };
    const psi::pselinv::RunResult p1 = timed_run(1, "des.ktrace_p1.shifted_small");
    const psi::pselinv::RunResult p4 = timed_run(4, "des.ktrace_p4.shifted_small");
    if (p4.makespan != p1.makespan || p4.events != p1.events)
      outcome.fail("des_replay: partitioned run differs from sequential");

    for (std::size_t k = 0; k < stats_.size(); ++k) {
      const std::string key = kSchemes[k].key;
      const RunStats& st = stats_[k];
      const double run_s = median(trace.durations("des.ktrace." + key));
      out.push_back({"trees.plan_s." + key,
                     median(trace.durations("des.plan." + key)), "s"});
      out.push_back({"sim.events." + key, static_cast<double>(st.events), "count"});
      out.push_back({"sim.events_per_s." + key,
                     static_cast<double>(st.events) / run_s, "1/s"});
      out.push_back({"sim.comm_share." + key, st.comm_seconds / st.makespan, "ratio"});
      out.push_back({"sim.makespan_s." + key, st.makespan, "s"});
    }
    out.push_back({"sim.arena_high_water",
                   static_cast<double>(stats_.back().arena_high_water), "count"});
    out.push_back({"sim.partitioned_speedup",
                   median(trace.durations("des.ktrace_p1.shifted_small")) /
                       median(trace.durations("des.ktrace_p4.shifted_small")),
                   "x"});
    out.push_back({"symbolic.audikw_s",
                   median(trace.durations("des.analyze_audikw")), "s"});
    plans_.clear();
  }

 private:
  struct RunStats {
    double makespan = 0.0;
    double comm_seconds = 0.0;
    psi::Count events = 0;
    std::size_t arena_high_water = 0;
  };

  static void check_run(const std::string& what,
                        const psi::pselinv::RunResult& run, Outcome& outcome) {
    outcome.attempt();
    if (!run.complete())
      outcome.fail(what + ": incomplete");
    else if (run.channel_inflight != 0)
      outcome.fail(what + ": channel_inflight != 0");
    else if (run.leaked_timers != 0)
      outcome.fail(what + ": leaked timers");
  }

  /// One three-scheme replay on the 46x46 grid; wall_s is its total.
  PassResult replay(Trace* trace, Outcome& outcome, bool keep_plans) {
    PassResult result;
    stats_.clear();
    plans_.clear();
    const psi::sim::Machine machine(machine_);
    const Clock::time_point start = Clock::now();
    ScopedSpan replay_span(trace, "des.replay", kDesIds);
    for (const SchemeRun& s : kSchemes) {
      const Clock::time_point t0 = Clock::now();
      auto plan = std::make_unique<psi::pselinv::Plan>(
          analysis_->blocks, psi::dist::ProcessGrid(kGrid, kGrid),
          psi::driver::tree_options_for(s.scheme));
      const Clock::time_point t1 = Clock::now();
      const psi::pselinv::RunResult run = psi::pselinv::run_pselinv(
          *plan, machine, psi::pselinv::ExecutionMode::kTrace);
      const Clock::time_point t2 = Clock::now();
      if (trace != nullptr) {
        trace->record(std::string("des.plan.") + s.key, kDesIds, t0, t1,
                      replay_span.id());
        trace->record(std::string("des.ktrace.") + s.key, kDesIds, t1, t2,
                      replay_span.id());
        trace->count(std::string("des.events.") + s.key,
                     static_cast<double>(run.events));
      }
      check_run(std::string("des_replay ") + s.key, run, outcome);
      stats_.push_back({run.makespan, run.mean_comm_seconds(), run.events,
                        run.arena_high_water});
      result.latency_s.push_back(seconds_between(t0, t2));
      ++result.ok;
      if (keep_plans) plans_.push_back(std::move(plan));
    }
    result.wall_s = seconds_between(start, Clock::now());
    return result;
  }

  static constexpr int kGrid = 46;  ///< 2116 ranks
  static constexpr int kPartitionGrid = 23;  ///< 529 ranks
  static constexpr double kPartitionScale = 0.3;

  std::unique_ptr<psi::SymbolicAnalysis> analysis_;  ///< plans reference it
  psi::sim::MachineConfig machine_;
  std::vector<std::unique_ptr<psi::pselinv::Plan>> plans_;
  std::vector<RunStats> stats_;
  std::vector<double> replays_;  ///< seconds of each measured replay
};

// --- nsym_selinv ----------------------------------------------------------------

class NsymSelinv final : public Workload {
 public:
  void setup(std::uint64_t seed, double, Trace*) override {
    structures_.clear();
    cursor_ = 0;
    const std::vector<CatalogEntry> catalog = nsym_catalog();
    structures_.resize(catalog.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t s = 0; s < catalog.size(); ++s) {
      Structure& st = structures_[s];
      st.name = catalog[s].name;
      for (int v = 0; v < kValueSets; ++v)
        st.values.push_back(with_values(catalog[s].gen.matrix, seed, 100 + s, v,
                                        psi::ValueKind::kUnsymmetric));
      st.reference.resize(kValueSets);
      jobs.push_back([&st] {
        st.analysis = std::make_unique<psi::nsym::NsymAnalysis>(
            psi::nsym::analyze_nsym(st.values[0], options()));
      });
    }
    run_parallel(jobs);
    jobs.clear();
    for (Structure& st : structures_)
      for (int v = 0; v < kValueSets; ++v)
        jobs.push_back([&st, v] {
          psi::nsym::NsymSupernodalLU lu = psi::nsym::NsymSupernodalLU::factor(
              st.analysis->sym.blocks, st.analysis->structure, permuted(st, v));
          st.reference[v] =
              psi::serve::ainv_digest(psi::nsym::nsym_selected_inversion(lu));
        });
    run_parallel(jobs);
  }

  PassResult measure(double seconds, std::int64_t min_ok,
                     Outcome& outcome) override {
    return pass(seconds, min_ok, std::numeric_limits<std::int64_t>::max(),
                nullptr, outcome, true);
  }

  void verify(Outcome& outcome) override {
    for (const Structure& st : structures_) {
      if (st.checked == nullptr) {
        outcome.fail("nsym_selinv " + st.name + ": no inverse to check");
        continue;
      }
      outcome.check_within(
          "nsym_selinv " + st.name + " dense reference",
          dense_gap(*st.checked, st.analysis->sym.blocks, st.analysis->sym.perm,
                    psi::inverse(dense_of(st.values[0])), true),
          kDenseTolerance);
    }
  }

  std::vector<double> replay_rounds(double budget, Outcome& outcome) override {
    return timed_rounds(budget, outcome, [&](int round, Outcome& checks) {
      double total = 0.0;
      for (const Structure& st : structures_) {
        const int v = round % kValueSets;
        const Clock::time_point t0 = Clock::now();
        psi::nsym::NsymSupernodalLU lu = psi::nsym::NsymSupernodalLU::factor(
            st.analysis->sym.blocks, st.analysis->structure, permuted(st, v));
        const psi::BlockMatrix ainv = psi::nsym::nsym_selected_inversion(lu);
        total += seconds_between(t0, Clock::now());
        checks.check_digest("nsym_selinv replay " + st.name,
                            psi::serve::ainv_digest(ainv), st.reference[v]);
      }
      return total;
    });
  }

  PassResult fixed_pass(Trace* trace, Outcome& outcome) override {
    return pass(kUnbounded, 0, kFixedSolves, trace, outcome, false);
  }

  void layer_metrics(Trace& trace, Outcome& outcome,
                     std::vector<Metric>& out) override {
    for (std::size_t s = 0; s < structures_.size(); ++s) {
      const Structure& st = structures_[s];
      for (int rep = 0; rep < kReplayRounds; ++rep) {
        const std::int64_t id = kNsymIds + 900'000 + static_cast<std::int64_t>(s * 10) + rep;
        {
          ScopedSpan span(&trace, "nsym.analyze." + st.name, id);
          psi::nsym::analyze_nsym(st.values[0], options());
        }
        const psi::SparseMatrix matrix = permuted(st, rep % kValueSets);
        const Clock::time_point t0 = Clock::now();
        psi::nsym::NsymSupernodalLU lu = psi::nsym::NsymSupernodalLU::factor(
            st.analysis->sym.blocks, st.analysis->structure, matrix);
        const Clock::time_point t1 = Clock::now();
        const psi::BlockMatrix ainv = psi::nsym::nsym_selected_inversion(lu);
        const Clock::time_point t2 = Clock::now();
        trace.record("nsym.factor_1t." + st.name, id, t0, t1);
        trace.record("nsym.selinv_1t." + st.name, id, t1, t2);
        outcome.check_digest("nsym_selinv 1-thread " + st.name,
                             psi::serve::ainv_digest(ainv),
                             st.reference[rep % kValueSets]);
      }
      const psi::BlockStructure& bs = st.analysis->sym.blocks;
      const std::string p = "nsym." + st.name + ".";
      out.push_back({p + "analyze_ms", median_ms(trace.durations("nsym.analyze." + st.name)), "ms"});
      out.push_back({p + "factor_ms", median_ms(trace.durations("nsym.factor." + st.name)), "ms"});
      out.push_back({p + "selinv_ms", median_ms(trace.durations("nsym.selinv." + st.name)), "ms"});
      out.push_back({p + "factor_gflops",
                     static_cast<double>(psi::nsym::nsym_factorization_flops(
                         bs, st.analysis->structure)) /
                         median(trace.durations("nsym.factor_1t." + st.name)) / 1e9,
                     "GF/s"});
      out.push_back({p + "selinv_gflops",
                     static_cast<double>(psi::nsym::nsym_selinv_flops(
                         bs, st.analysis->structure)) /
                         median(trace.durations("nsym.selinv_1t." + st.name)) / 1e9,
                     "GF/s"});
    }
  }

 private:
  struct Structure {
    std::string name;
    std::vector<psi::SparseMatrix> values;
    std::vector<std::string> reference;
    std::unique_ptr<psi::nsym::NsymAnalysis> analysis;
    std::unique_ptr<psi::BlockMatrix> checked;
  };

  static constexpr std::int64_t kFixedSolves = 16;

  /// Default analysis: nested dissection, supernode cap 96.
  static psi::AnalysisOptions options() { return psi::AnalysisOptions{}; }

  /// Structure and value set of request i: two FEM solves per DG solve,
  /// so the median falls inside the FEM latencies (at their lower quartile,
  /// where the parallel solves are steadiest) rather than between the two
  /// structures.
  static std::pair<std::size_t, int> request(std::int64_t i) {
    const std::int64_t round = i / 3;
    const std::int64_t slot = i % 3;
    if (slot == 0) return {0, static_cast<int>(round % kValueSets)};
    return {1, static_cast<int>((2 * round + slot - 1) % kValueSets)};
  }

  static psi::SparseMatrix permuted(const Structure& st, int v) {
    return psi::permute_symmetric(st.values[v],
                                  st.analysis->sym.perm.old_to_new());
  }

  PassResult pass(double seconds, std::int64_t min_ok, std::int64_t max_solves,
                  Trace* trace, Outcome& outcome, bool keep_first) {
    PassResult result;
    psi::numeric::ParallelOptions opts;
    opts.threads = kComputeThreads;
    const Clock::time_point start = Clock::now();
    for (std::int64_t k = 0; k < max_solves; ++k) {
      const double elapsed = seconds_between(start, Clock::now());
      if (elapsed >= kHardStopSeconds ||
          (elapsed >= seconds && result.ok >= min_ok))
        break;
      const std::int64_t i = cursor_++;
      const auto [s, v] = request(i);
      Structure& st = structures_[s];
      const std::int64_t id = kNsymIds + i;
      std::optional<psi::nsym::NsymSupernodalLU> lu;
      std::optional<psi::BlockMatrix> ainv;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan solve(trace, "nsym.solve", id);
        psi::SparseMatrix matrix;
        {
          ScopedSpan span(trace, "nsym.permute", id, solve.id());
          matrix = permuted(st, v);
        }
        {
          ScopedSpan span(trace, "nsym.factor." + st.name, id, solve.id());
          lu.emplace(psi::nsym::NsymSupernodalLU::factor_parallel(
              st.analysis->sym.blocks, st.analysis->structure, matrix, opts));
        }
        ScopedSpan span(trace, "nsym.selinv." + st.name, id, solve.id());
        ainv.emplace(psi::nsym::nsym_selinv_parallel(*lu, opts));
      }
      const Clock::time_point t1 = Clock::now();
      if (outcome.check_digest("nsym_selinv " + st.name,
                               psi::serve::ainv_digest(*ainv), st.reference[v])) {
        ++result.ok;
        result.latency_s.push_back(seconds_between(t0, t1));
      }
      if (keep_first && st.checked == nullptr)
        st.checked = std::make_unique<psi::BlockMatrix>(std::move(*ainv));
    }
    result.wall_s = seconds_between(start, Clock::now());
    return result;
  }

  std::vector<Structure> structures_;
  std::int64_t cursor_ = 0;  ///< next request index
};

}  // namespace

double Workload::p50(const PassResult& pass) const {
  return blocked_mean(pass.latency_s, kP50Block, median);
}

double Workload::p95(const PassResult& pass) const {
  const std::size_t n = pass.latency_s.size();
  const std::size_t blocks =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(kMinRequests));
  return blocked_mean(pass.latency_s, n / blocks, [](std::vector<double> v) {
    return resolved_percentile(v, 0.95);
  });
}

double Workload::overhead_basis(const PassResult& pass) const {
  return median(pass.latency_s);
}

std::vector<std::string> workload_names() {
  return {"warm_selinv", "cold_plan", "des_replay", "nsym_selinv"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "warm_selinv") return std::make_unique<WarmSelinv>();
  if (name == "cold_plan") return std::make_unique<ColdPlan>();
  if (name == "des_replay") return std::make_unique<DesReplay>();
  if (name == "nsym_selinv") return std::make_unique<NsymSelinv>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace psibench
