#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "mor/sampling.hpp"
#include "netgen.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MeshWorkload {
  const char* name;
  MeshSpec mesh;
  la::index samples;
  double truncation_tol;
  la::index max_order;
  double h_err_ceiling;      // output check on h_err_max
  double nominal_latency_s;  // sizes the run, never a result
  int setup_reps;            // assemblies of all inputs timed for setup_s
};

// mesh900_dense: the 400-column compressor R factor makes the three SVDs
// (order selection, basis, singular values) the bulk of the wall.
// mesh10k_sparse: 32 shifted refactor + solve passes on n = 10,000 dominate,
// and the SVDs of a 256-column R factor are small.
constexpr MeshWorkload kMeshWorkloads[] = {
    {"mesh900_dense", {30, 30, 4}, 50, 1e-6, 40, 1e-5, 1.75, 25},
    {"mesh10k_sparse", {100, 100, 4}, 32, 1e-6, 40, 1e-3, 4.2, 5},
};

constexpr mor::Band kBand{1e5, 1e11};
constexpr int kCheckPoints = 6;

const MeshWorkload& lookup(const std::string& name) {
  for (const auto& w : kMeshWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown mesh workload " + name);
}

}  // namespace

void run_mesh(const Args& args, Report& report) {
  const MeshWorkload& w = lookup(args.workload);
  mor::PmtbrOptions opts;
  opts.bands = {kBand};
  opts.num_samples = w.samples;
  opts.scheme = mor::SamplingScheme::kUniform;
  opts.truncation_tol = w.truncation_tol;
  opts.max_order = w.max_order;

  // One distinct system per reduction, as many as fill --seconds at the
  // nominal latency: the same seed and seconds always run the same inputs,
  // however fast the program runs them.
  const int inputs =
      std::max(3, static_cast<int>(std::lround(args.seconds / w.nominal_latency_s)));
  std::vector<std::string> texts;
  for (int i = 0; i <= inputs; ++i)  // the extra one is the traced replay's input
    texts.push_back(mesh_netlist(w.mesh, args.seed, static_cast<std::uint64_t>(i)));

  std::vector<DescriptorSystem> systems;
  const Setup setup = time_setup(
      w.setup_reps, [] { setup_pool(pool_threads()); },
      [&] {
        systems.clear();
        for (int i = 0; i < inputs; ++i)
          systems.push_back(assemble_netlist(texts[static_cast<std::size_t>(i)]));
      });

  const std::vector<double> grid =
      check_grid(kBand, kCheckPoints, mor::sample_bands(opts.bands, opts.num_samples, opts.scheme));
  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;
  std::vector<double> latencies;
  double h_err_max = 0.0;
  const Counters before = counters_now();
  for (int i = 0; i < inputs; ++i) {
    const auto request = static_cast<std::uint64_t>(i + 1);
    DescriptorSystem sys = std::move(systems[static_cast<std::size_t>(i)]);
    mor::PmtbrResult res;
    bool ok = true;
    const auto t = Clock::now();
    try {
      const SpanLog::Scope span(spans, "pmtbr", request);
      res = mor::pmtbr(sys, opts);
    } catch (const std::exception& e) {
      ok = false;
      std::fprintf(stderr, "perfbench: reduction %d failed: %s\n", i, e.what());
    }
    const double latency = seconds_since(t);
    report.attempt(ok);
    if (!ok) continue;
    latencies.push_back(latency);

    // Output checks, outside the timed call.
    const SpanLog::Scope span(spans, "check", request);
    const la::index expected = expected_order(res.model.singular_values, w.truncation_tol,
                                              w.max_order);
    report.check(res.model.system.n() == expected,
                 "reduction " + std::to_string(i) + " has order " +
                     std::to_string(res.model.system.n()) + ", expected " +
                     std::to_string(expected));
    report.check(res.model.system.is_stable(), "reduction " + std::to_string(i) + " is unstable");
    report.check(!res.degradation.degraded(), "reduction " + std::to_string(i) + " degraded");
    h_err_max = std::max(h_err_max, relative_h_error(full_transfer(sys, grid), res.model.system, grid));
  }
  const Counters delta = counters_delta(before, counters_now());
  report.record("{\"counters\": " + counters_json(delta) + "}");
  // Cold by construction: no reduction may be served any work by a cache.
  report.check(counter(delta, "factor_cache_hit") == 0, "factor cache hit on a mesh workload");
  report.check(counter(delta, "model_cache_hit") == 0, "model cache hit on a mesh workload");
  report.check(h_err_max <= w.h_err_ceiling,
               "h_err_max " + std::to_string(h_err_max) + " above ceiling");
  report.check(!latencies.empty(), "no reduction completed");
  std::fprintf(stderr, "perfbench: %s: %zu reductions, %d inputs, h_err_max %.3e\n", w.name,
               latencies.size(), inputs, h_err_max);

  if (!args.trace) {
    emit_end_to_end({setup, latencies, h_err_max,
                     static_cast<double>(latencies.size()) / sum_of(latencies)},
                    report);
    return;
  }
  LayerMetrics layers;
  layers.assemble_s = median(setup.assemble_s);
  layers.traced_latency_s_p50 = latencies.empty() ? 0.0 : median(log.durations("pmtbr"));
  layers.factor_cache_hit_share = factor_hit_share(delta);
  replay_and_twin(texts.back(), opts, log, layers, report);
  emit_layers(layers, report);
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    log.write_json(out);
  }
}

}  // namespace perfbench
