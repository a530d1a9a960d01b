#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "replay.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

double factor_hit_share(const Counters& delta) {
  const double hits = static_cast<double>(counter(delta, "factor_cache_hit"));
  const double misses = static_cast<double>(counter(delta, "factor_cache_miss"));
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void replay_and_twin(const std::string& text, const mor::PmtbrOptions& opts, SpanLog& log,
                     LayerMetrics& layers, Report& report) {
  const DescriptorSystem replayed = assemble_netlist(text);
  const ReplayResult rep =
      replay_pmtbr(replayed, opts, pmtbr::util::global_pool().size(), log, 0);
  layers.replay_wall_s = log.duration(rep.root);
  layers.unattributed_s = log.self_time(rep.root);
  layers.ordering_s = log.total("circuit.ordering");
  layers.pencil_s = log.total("sparse.pencil");
  layers.symbolic_s = log.total("sparse.symbolic");
  layers.refactor_s = log.total("sparse.refactor");
  layers.solve_s = log.total("sparse.solve");
  layers.sample_block_s = log.total("mor.sample_block");
  layers.compress_s = log.total("mor.compress");
  layers.order_select_s = log.total("mor.order_select");
  layers.basis_s = log.total("mor.basis");
  layers.project_s = log.total("mor.project");
  layers.singular_values_s = log.total("mor.singular_values");
  layers.fill_nnz = static_cast<double>(rep.fill_nnz);
  layers.refactor_rejects = static_cast<double>(rep.rejects);

  // The twin is a separate assembly of the same text: it shares no cache
  // with the replayed system, and the replay never touched the factor cache.
  const DescriptorSystem twin = assemble_netlist(text);
  const Counters before = counters_now();
  const auto t0 = Clock::now();
  const mor::PmtbrResult real = mor::pmtbr(twin, opts);
  const double wall = seconds_since(t0);
  layers.twin = counters_delta(before, counters_now());
  layers.pool_speedup = layers.replay_wall_s / wall;
  report.record("{\"twin_counters\": " + counters_json(layers.twin) + "}");

  const auto& a = rep.singular_values;
  const auto& b = real.model.singular_values;
  bool match = a.size() == b.size() && !b.empty();
  for (std::size_t i = 0; match && i < a.size(); ++i)
    match = std::abs(a[i] - b[i]) <= 1e-12 * b.front();
  report.check(match, "replay singular values differ from mor::pmtbr");
  report.check(rep.order == real.model.system.n(), "replay order differs from mor::pmtbr");
  report.check(rep.refactors == counter(layers.twin, "sparse_lu_refactor"),
               "replay refactor count differs from mor::pmtbr");
  report.check(rep.rejects == counter(layers.twin, "sparse_lu_refactor_reject"),
               "replay reject count differs from mor::pmtbr");
  report.check(rep.solves == counter(layers.twin, "shifted_solve"),
               "replay solve count differs from mor::pmtbr");
}

void emit_end_to_end(const EndToEnd& e, Report& r) {
  const bool any = !e.latencies.empty();
  const Tail tail = any ? latency_tail(e.latencies) : Tail{};
  r.record("{\"latency_tail\": {\"percentile\": " + std::to_string(tail.percent) +
           ", \"samples\": " + std::to_string(e.latencies.size()) + "}}");
  std::string reps;
  for (double t : e.setup.assemble_s) reps += (reps.empty() ? "" : ", ") + std::to_string(t);
  r.record("{\"setup\": {\"once_s\": " + std::to_string(e.setup.once_s) +
           ", \"assemble_s\": [" + reps + "]}}");
  r.metric("setup_s", e.setup.once_s + median(e.setup.assemble_s), "s");
  r.metric("latency_s_p50", any ? median(e.latencies) : 0.0, "s");
  r.metric("latency_s_tail", tail.value, "s");
  r.metric("completed_share",
           static_cast<double>(r.attempted() - r.failed()) /
               static_cast<double>(std::max<std::int64_t>(r.attempted(), 1)),
           "ratio");
  r.metric("h_err_max", e.h_err_max, "ratio");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("reductions_per_s", e.reductions_per_s, "1/s");
}

void emit_layers(const LayerMetrics& l, Report& r) {
  r.metric("circuit.assemble_s", l.assemble_s, "s");
  r.metric("circuit.ordering_s", l.ordering_s, "s");
  r.metric("sparse.pencil_s", l.pencil_s, "s");
  r.metric("sparse.symbolic_s", l.symbolic_s, "s");
  r.metric("sparse.fill_nnz", l.fill_nnz, "count");
  r.metric("sparse.refactor_s", l.refactor_s, "s");
  r.metric("sparse.solve_s", l.solve_s, "s");
  r.metric("sparse.refactor_rejects", l.refactor_rejects, "count");
  r.metric("mor.sample_block_s", l.sample_block_s, "s");
  r.metric("mor.compress_s", l.compress_s, "s");
  r.metric("mor.order_select_s", l.order_select_s, "s");
  r.metric("mor.basis_s", l.basis_s, "s");
  r.metric("mor.singular_values_s", l.singular_values_s, "s");
  r.metric("mor.project_s", l.project_s, "s");
  r.metric("replay.wall_s", l.replay_wall_s, "s");
  r.metric("replay.unattributed_s", l.unattributed_s, "s");
  const double wall = l.replay_wall_s > 0 ? l.replay_wall_s : 1.0;
  r.metric("replay.svd_share", (l.order_select_s + l.basis_s + l.singular_values_s) / wall,
           "ratio");
  r.metric("replay.sparse_share", (l.refactor_s + l.solve_s) / wall, "ratio");
  r.metric("pool.speedup", l.pool_speedup, "ratio");
  r.metric("traced.latency_s_p50", l.traced_latency_s_p50, "s");
  // Counter deltas of one real reduction, looked up by name.
  static const char* const kCounters[][2] = {
      {"svd_calls", "count"},         {"svd_sweeps", "count"},
      {"svd_flops", "flop"},          {"qr_flops", "flop"},
      {"gemm_flops", "flop"},         {"sparse_lu_full_factor", "count"},
      {"sparse_lu_refactor", "count"}, {"shifted_solve", "count"},
      {"pool_parallel_for", "count"}, {"pool_idle_nanos", "ns"}};
  for (const auto& [name, unit] : kCounters)
    if (l.twin.count(name)) r.metric(name, static_cast<double>(counter(l.twin, name)), unit);
  r.metric("serve.submit_s_p50", l.submit_s_p50, "s");
  r.metric("serve.queue_s_p50", l.queue_s_p50, "s");
  r.metric("serve.queue_s_p90", l.queue_s_p90, "s");
  r.metric("serve.run_s_p50", l.run_s_p50, "s");
  r.metric("serve.run_s_p90", l.run_s_p90, "s");
  r.metric("serve.cache_served_share", l.cache_served_share, "ratio");
  r.metric("serve.runner_busy_share", l.runner_busy_share, "ratio");
  r.metric("factor_cache.hit_share", l.factor_cache_hit_share, "ratio");
}

}  // namespace perfbench
