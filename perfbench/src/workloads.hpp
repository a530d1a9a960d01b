// The benchmark's workloads. Each fills the report with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and records
// every failed output check in it.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// `mesh900_dense` / `mesh10k_sparse`: back-to-back mor::pmtbr calls from one
/// closed-loop caller, each on a distinct seeded mesh.
void run_mesh(const Args& args, Report& report);

/// `serve_mix`: one ReductionService, one submitter keeping four jobs
/// outstanding over a fixed mix of fresh, repeated and re-capped jobs.
void run_serve(const Args& args, Report& report);

/// Per-layer figures of a traced run. A layer a workload does not exercise
/// keeps its zero, so every traced run prints the same metric set.
struct LayerMetrics {
  double assemble_s = 0;  // try_assemble_netlist calls of one set-up
  // Stage totals of the replay (replay.hpp), its wall and its gaps.
  double ordering_s = 0, pencil_s = 0, symbolic_s = 0, refactor_s = 0, solve_s = 0;
  double sample_block_s = 0, compress_s = 0, order_select_s = 0, basis_s = 0;
  double project_s = 0, singular_values_s = 0;
  double replay_wall_s = 0, unattributed_s = 0, pool_speedup = 0;
  double fill_nnz = 0, refactor_rejects = 0;
  Counters twin;  // counter deltas of the real pmtbr on the replayed input
  double traced_latency_s_p50 = 0;
  double factor_cache_hit_share = 0;
  // Service layer.
  double submit_s_p50 = 0, queue_s_p50 = 0, queue_s_p90 = 0, run_s_p50 = 0, run_s_p90 = 0;
  double cache_served_share = 0, runner_busy_share = 0;
};

/// Set-up time: the one-off part (first touch of the pool and, for the
/// service, its construction) plus the median of repeated assemblies of
/// every input of the run.
struct Setup {
  double once_s = 0.0;
  std::vector<double> assemble_s;  // one entry per repetition
};

/// End-to-end figures of an untraced run.
struct EndToEnd {
  Setup setup;
  std::vector<double> latencies;  // request to result, completed requests only
  double h_err_max = 0.0;
  double reductions_per_s = 0.0;
};
void emit_end_to_end(const EndToEnd& e2e, Report& report);

/// Runs `assemble_all` `reps` times after timing `once` a single time.
/// `assemble_all` must rebuild every input from its text each call.
template <class Once, class AssembleAll>
Setup time_setup(int reps, Once&& once, AssembleAll&& assemble_all) {
  Setup s;
  const auto t0 = Clock::now();
  once();
  s.once_s = seconds_since(t0);
  for (int rep = 0; rep < reps; ++rep) {
    const auto t = Clock::now();
    assemble_all();
    s.assemble_s.push_back(seconds_since(t));
  }
  return s;
}

/// Replays one reduction of `text` stage by stage, then runs the real
/// mor::pmtbr on a twin assembled from the same text, checks that both agree
/// (singular values within 1e-12 of sigma_1, equal refactor, reject and solve
/// counts) and fills the replay and counter fields of `layers`.
void replay_and_twin(const std::string& text, const mor::PmtbrOptions& opts, SpanLog& log,
                     LayerMetrics& layers, Report& report);

void emit_layers(const LayerMetrics& layers, Report& report);

/// Factor-cache hits over hits + misses in a counter delta (0 when unused).
double factor_hit_share(const Counters& delta);

}  // namespace perfbench
