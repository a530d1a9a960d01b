#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "mor/sampling.hpp"
#include "netgen.hpp"
#include "serve/job.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pmtbr::serve::JobRequest;
using pmtbr::serve::JobResult;
using pmtbr::serve::Method;
using pmtbr::serve::Priority;

constexpr mor::Band kBand{1e5, 1e11};
constexpr int kOutstanding = 4;    // closed loop: jobs in flight at any time
constexpr int kMinBlocks = 11;     // 110 jobs: a p90 with 11 samples beyond it
constexpr double kNominalBlockSeconds = 1.45;  // sizes the plan, never a result
constexpr int kCheckPoints = 6;
constexpr int kSetupReps = 3;    // assemblies of all requests timed for setup_s
constexpr double kHErrCeiling = 5e-2;

// One job of the fixed mix. A fresh job reduces its own seeded system; a
// repeat resubmits an earlier job unchanged (the model cache serves it); a
// re-cap resubmits an earlier job's netlist and samples with another order
// cap (the model cache misses, the factor cache can hit).
struct JobSpec {
  enum class Source { kFresh, kRepeat, kRecap };
  Source source = Source::kFresh;
  int of = -1;  // repeat / re-cap: index of the earlier job in the block
  bool mesh = true;
  MeshSpec mesh_spec{};
  BusSpec bus_spec{};
  Method method = Method::kPmtbr;
  la::index samples = 0;
  // Buses are sampled logarithmically: their large low-frequency impedance
  // is missed by a uniform grid that starts at 1e9 Hz.
  mor::SamplingScheme scheme = mor::SamplingScheme::kUniform;
  double truncation_tol = 1e-6;
  double adaptive_excess = 0.0;
  la::index max_order = 30;
  Priority priority = Priority::kNormal;
};

JobSpec mesh_job(MeshSpec m, la::index samples, Priority p) {
  JobSpec j;
  j.mesh_spec = m;
  j.samples = samples;
  j.priority = p;
  return j;
}

// Adaptive stopping: the loop runs an order estimate (an SVD of the
// compressor's R factor) after every absorbed sample.
JobSpec adaptive_stop_job(MeshSpec m, la::index samples, Priority p) {
  JobSpec j = mesh_job(m, samples, p);
  j.truncation_tol = 1e-4;
  j.adaptive_excess = 1.5;
  return j;
}

JobSpec bisection_job(MeshSpec m, la::index max_samples, Priority p) {
  JobSpec j = mesh_job(m, max_samples, p);
  j.method = Method::kPmtbrAdaptive;
  return j;
}

JobSpec bus_job(BusSpec b, la::index samples, Priority p) {
  JobSpec j;
  j.mesh = false;
  j.bus_spec = b;
  j.samples = samples;
  j.scheme = mor::SamplingScheme::kLogarithmic;
  j.priority = p;
  return j;
}

JobSpec derived(JobSpec::Source source, int of, la::index max_order = 0) {
  JobSpec j;
  j.source = source;
  j.of = of;
  j.max_order = max_order;
  return j;
}

// The mix, repeated block after block: per 10 jobs, 6 fresh, 2 repeats and
// 2 re-caps; jobs 2 and 7 stop adaptively and job 6 bisects adaptively.
// Sizes (n = 400 to 2,500, 16 to 40 samples) keep single jobs at roughly
// 0.1 to 1 s on 4 threads, long against scheduler jitter.
const std::vector<JobSpec>& block() {
  using S = JobSpec::Source;
  static const std::vector<JobSpec> jobs{
      mesh_job({40, 40, 4}, 24, Priority::kNormal),
      bus_job({4, 100}, 16, Priority::kHigh),
      adaptive_stop_job({30, 30, 2}, 40, Priority::kLow),
      derived(S::kRecap, 0, 20),
      derived(S::kRepeat, 1),
      mesh_job({50, 50, 4}, 16, Priority::kHigh),
      bisection_job({30, 30, 2}, 24, Priority::kNormal),
      adaptive_stop_job({20, 20, 2}, 40, Priority::kLow),
      derived(S::kRecap, 5, 20),
      derived(S::kRepeat, 6),
  };
  return jobs;
}

// A planned job, resolved to the fresh job whose netlist it uses.
struct Planned {
  int source = 0;  // plan index of the job whose text this job reduces
  JobSpec spec;    // kind fields of the source job, order cap of this job
  bool repeat = false;
};

// Each block submits the mix in its own seeded order, with every repeat and
// re-cap after its original. A fixed order lets the two runners lock into
// one interleaving for the whole run, and which one a run locks into moved
// the p50 by a decile from run to run.
std::vector<Planned> plan(int blocks, std::uint64_t seed) {
  const auto& b = block();
  const int per = static_cast<int>(b.size());
  std::vector<Planned> out(static_cast<std::size_t>(blocks * per));
  for (int k = 0; k < blocks; ++k) {
    std::vector<int> pos = seeded_permutation(per, seed, static_cast<std::uint64_t>(k));
    for (int j = 0; j < per; ++j) {
      const int of = b[static_cast<std::size_t>(j)].of;
      if (of >= 0 && pos[static_cast<std::size_t>(j)] < pos[static_cast<std::size_t>(of)])
        std::swap(pos[static_cast<std::size_t>(j)], pos[static_cast<std::size_t>(of)]);
    }
    const auto at = [&](int j) { return k * per + pos[static_cast<std::size_t>(j)]; };
    for (int j = 0; j < per; ++j) {
      const JobSpec& s = b[static_cast<std::size_t>(j)];
      Planned& p = out[static_cast<std::size_t>(at(j))];
      if (s.source == JobSpec::Source::kFresh) {
        p.source = at(j);
        p.spec = s;
      } else {
        p.source = at(s.of);
        p.spec = b[static_cast<std::size_t>(s.of)];
        p.repeat = s.source == JobSpec::Source::kRepeat;
        if (!p.repeat) p.spec.max_order = s.max_order;
      }
    }
  }
  return out;
}

mor::PmtbrOptions options_for(const JobSpec& s) {
  mor::PmtbrOptions o;
  o.bands = {kBand};
  o.num_samples = s.samples;
  o.scheme = s.scheme;
  o.truncation_tol = s.truncation_tol;
  o.max_order = s.max_order;
  o.adaptive_excess = s.adaptive_excess;
  return o;
}

std::string text_for(const Planned& p, std::uint64_t seed) {
  const auto instance = static_cast<std::uint64_t>(p.source);
  return p.spec.mesh ? mesh_netlist(p.spec.mesh_spec, seed, instance)
                     : bus_netlist(p.spec.bus_spec, seed, instance);
}

JobRequest request_for(const Planned& p, const std::string& text, int index) {
  auto req = pmtbr::serve::job_from_netlist(text, options_for(p.spec),
                                            "job" + std::to_string(index));
  if (!req.is_ok()) throw std::runtime_error("netlist rejected: " + req.status().to_string());
  JobRequest r = std::move(req).value();
  r.method = p.spec.method;
  r.priority = p.spec.priority;
  if (r.method == Method::kPmtbrAdaptive) {
    r.adaptive.band = kBand;
    r.adaptive.initial_samples = 4;
    r.adaptive.max_samples = p.spec.samples;
    r.adaptive.novelty_tol = 1e-7;
  }
  return r;
}

// What the closed loop observed for one job.
struct Observed {
  bool submitted = false;
  JobResult result;      // outcome kFailed until a result arrives
  double latency = 0.0;  // submit() call to result in hand
  double submit = 0.0;   // the submit() call alone
};

// The client: one submitter (the caller of submit()) keeps at most
// kOutstanding jobs in flight, and one waiter thread per in-flight job takes
// its result the moment it is final, so latency ends when the result is in
// hand, not when an earlier job's result is.
class ClosedLoop {
 public:
  ClosedLoop(pmtbr::serve::ReductionService& service, std::vector<Observed>& seen,
             SpanLog* spans)
      : service_(service), seen_(seen), spans_(spans), request_span_(seen.size(), -1) {
    for (int w = 0; w < kOutstanding; ++w) waiters_.emplace_back([this] { wait_loop(); });
  }
  ~ClosedLoop() { finish(); }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Blocks until fewer than kOutstanding jobs are in flight, then submits.
  void submit(std::size_t i, JobRequest req) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return outstanding_ < kOutstanding; });
    }
    const auto request = static_cast<std::uint64_t>(i + 1);
    const int span = spans_ ? spans_->open("request", request) : -1;
    const auto t = Clock::now();
    auto id = [&] {
      const SpanLog::Scope submit_span(spans_, "submit", request, span);
      return service_.submit(std::move(req));
    }();
    const double submit_call = seconds_since(t);
    std::lock_guard<std::mutex> lock(mutex_);
    Observed& o = seen_[i];
    o.submit = submit_call;
    if (!id.is_ok()) {
      if (spans_) spans_->close(span);
      o.result.status = id.status();
      return;
    }
    o.submitted = true;
    request_span_[i] = span;
    ++outstanding_;
    handoff_.push_back({id.value(), i, t});
    cv_.notify_all();
  }

  /// Waits for every job in flight and joins the waiters.
  void finish() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return outstanding_ == 0; });
      closing_ = true;
      cv_.notify_all();
    }
    for (auto& t : waiters_)
      if (t.joinable()) t.join();
  }

 private:
  struct InFlight {
    pmtbr::serve::JobId id;
    std::size_t index;
    Clock::time_point submitted_at;
  };

  void wait_loop() {
    for (;;) {
      InFlight job{};
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return closing_ || !handoff_.empty(); });
        if (handoff_.empty()) return;
        job = handoff_.front();
        handoff_.pop_front();
      }
      JobResult result;
      try {
        result = service_.wait(job.id);
      } catch (const std::exception& e) {
        result.status = pmtbr::util::Status(pmtbr::util::ErrorCode::kUnhandledException, e.what());
      }
      const auto done = Clock::now();
      std::lock_guard<std::mutex> lock(mutex_);
      if (spans_) spans_->close(request_span_[job.index]);
      Observed& o = seen_[job.index];
      o.latency = std::chrono::duration<double>(done - job.submitted_at).count();
      o.result = std::move(result);
      --outstanding_;
      cv_.notify_all();
    }
  }

  pmtbr::serve::ReductionService& service_;
  std::vector<Observed>& seen_;  // guarded by mutex_
  SpanLog* spans_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int outstanding_ = 0;                // guarded by mutex_
  bool closing_ = false;               // guarded by mutex_
  std::deque<InFlight> handoff_;       // guarded by mutex_
  std::vector<int> request_span_;      // guarded by mutex_
  std::vector<std::thread> waiters_;   // declared last: joined before the rest dies
};

}  // namespace

void run_serve(const Args& args, Report& report) {
  // A fixed plan sized from --seconds: the same seed and seconds always
  // submit the same jobs, however fast the program runs them.
  const int blocks = std::max(
      kMinBlocks, static_cast<int>(std::lround(args.seconds / kNominalBlockSeconds)));
  const std::vector<Planned> jobs = plan(blocks, args.seed);

  std::vector<std::string> texts(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (jobs[i].source == static_cast<int>(i)) texts[i] = text_for(jobs[i], args.seed);
  const auto text_of = [&](std::size_t i) -> const std::string& {
    return texts[static_cast<std::size_t>(jobs[i].source)];
  };

  // Set-up: the pool and the service once, every request from its text.
  std::vector<JobRequest> requests;
  std::unique_ptr<pmtbr::serve::ReductionService> service;
  const Setup setup = time_setup(
      kSetupReps,
      [&] {
        setup_pool(pool_threads());
        service = std::make_unique<pmtbr::serve::ReductionService>();
      },
      [&] {
        requests.clear();
        for (std::size_t i = 0; i < jobs.size(); ++i)
          requests.push_back(request_for(jobs[i], text_of(i), static_cast<int>(i)));
      });
  const int runners = pmtbr::serve::ServiceOptions{}.runners;

  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;
  std::vector<Observed> seen(jobs.size());
  const Counters before = counters_now();
  const auto t_start = Clock::now();
  {
    ClosedLoop client(*service, seen, spans);
    for (std::size_t i = 0; i < jobs.size(); ++i) client.submit(i, std::move(requests[i]));
  }
  const double wall = seconds_since(t_start);
  const Counters delta = counters_delta(before, counters_now());
  report.record("{\"counters\": " + counters_json(delta) + "}");
  const pmtbr::serve::ServiceStats stats = service->stats();
  service.reset();
  requests.clear();
  const std::size_t planned = jobs.size();

  // Outcome accounting: the partition is exact and nothing failed.
  report.check(stats.submitted ==
                   stats.completed + stats.failed + stats.cancelled + stats.expired + stats.rejected,
               "service outcome partition is not exact");
  std::vector<double> latency, submit, queue, run;
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < planned; ++i) {
    const Observed& o = seen[i];
    const bool ok = o.submitted && o.result.outcome == pmtbr::serve::JobOutcome::kCompleted;
    report.attempt(ok);
    if (!ok) {
      std::fprintf(stderr, "perfbench: job %zu %s: %s\n", i,
                   o.submitted ? pmtbr::serve::job_outcome_name(o.result.outcome) : "rejected",
                   o.result.status.to_string().c_str());
      continue;
    }
    if (jobs[i].repeat) ++repeats;
    latency.push_back(o.latency);
    submit.push_back(o.submit);
    queue.push_back(o.result.queue_seconds);
    run.push_back(o.result.run_seconds);
  }
  report.check(static_cast<std::int64_t>(planned) == stats.submitted,
               "service saw a different number of submissions");

  // Cache accounting: exactly the planned repeats were served from the model
  // cache, and each is bit-identical to the job it repeats.
  const std::int64_t served =
      counter(delta, "model_cache_hit") + counter(delta, "model_cache_coalesced");
  report.check(served == static_cast<std::int64_t>(repeats),
               "model cache served " + std::to_string(served) + " jobs, planned " +
                   std::to_string(repeats));
  for (std::size_t i = 0; i < planned; ++i) {
    if (!jobs[i].repeat) continue;
    const auto src = static_cast<std::size_t>(jobs[i].source);
    if (seen[i].result.outcome == pmtbr::serve::JobOutcome::kCompleted &&
        seen[src].result.outcome == pmtbr::serve::JobOutcome::kCompleted)
      report.check(bit_identical(seen[i].result.reduction, seen[src].result.reduction),
                   "repeat job " + std::to_string(i) + " differs from its original");
  }

  // Model checks, after the timed loop. H of each full system is evaluated
  // once per netlist on a fresh assembly.
  double h_err_max = 0.0;
  std::map<int, std::vector<la::MatC>> full_h;
  std::vector<mor::FrequencySample> sampled;
  for (const JobSpec& s : block())
    for (const auto& fs : mor::sample_bands({kBand}, std::max<la::index>(s.samples, 1), s.scheme))
      sampled.push_back(fs);
  const std::vector<double> grid = check_grid(kBand, kCheckPoints, sampled);
  for (std::size_t i = 0; i < planned; ++i) {
    const Observed& o = seen[i];
    if (o.result.outcome != pmtbr::serve::JobOutcome::kCompleted) continue;
    const mor::PmtbrResult& res = o.result.reduction;
    const std::string tag = "job " + std::to_string(i);
    report.check(res.model.system.n() == expected_order(res.model.singular_values,
                                                        jobs[i].spec.truncation_tol,
                                                        jobs[i].spec.max_order),
                 tag + " has an unexpected order");
    report.check(res.model.system.is_stable(), tag + " is unstable");
    report.check(!res.degradation.degraded(), tag + " degraded");
    auto& h = full_h[jobs[i].source];
    if (h.empty()) {
      h = full_transfer(assemble_netlist(text_of(i)), grid);
    }
    h_err_max = std::max(h_err_max, relative_h_error(h, res.model.system, grid));
  }
  report.check(h_err_max <= kHErrCeiling,
               "h_err_max " + std::to_string(h_err_max) + " above ceiling");
  const auto p90 = tail_percentile(latency, 90);
  report.check(p90.has_value(), "too few jobs for a p90 with ten samples beyond it");
  std::fprintf(stderr,
               "perfbench: serve_mix: %zu jobs in %.2f s, %lld cache-served, h_err_max %.3e\n",
               planned, wall, static_cast<long long>(served), h_err_max);

  if (!args.trace) {
    emit_end_to_end({setup, latency, h_err_max, static_cast<double>(stats.completed) / wall},
                    report);
    return;
  }
  LayerMetrics layers;
  layers.assemble_s = median(setup.assemble_s);
  if (latency.empty()) latency = submit = queue = run = {0.0};
  layers.traced_latency_s_p50 = median(latency);
  layers.factor_cache_hit_share = factor_hit_share(delta);
  layers.submit_s_p50 = median(submit);
  layers.queue_s_p50 = median(queue);
  layers.queue_s_p90 = tail_percentile(queue, 90).value_or(max_of(queue));
  layers.run_s_p50 = median(run);
  layers.run_s_p90 = tail_percentile(run, 90).value_or(max_of(run));
  layers.cache_served_share =
      static_cast<double>(served) / static_cast<double>(std::max<std::int64_t>(stats.completed, 1));
  layers.runner_busy_share = sum_of(run) / (runners * wall);
  // Replay one adaptive-stopping mesh job (job 2 of the mix) on an input
  // no planned job uses.
  Planned adaptive;
  adaptive.spec = block()[2];
  adaptive.source = static_cast<int>(jobs.size());
  replay_and_twin(text_for(adaptive, args.seed), options_for(adaptive.spec), log, layers,
                  report);
  emit_layers(layers, report);
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    log.write_json(out);
  }
}

}  // namespace perfbench
