// Repo benchmark program: one workload per invocation.
//
//   perfbench --workload <mesh900_dense|mesh10k_sparse|serve_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Prints a context line, then record lines (counter deltas, set-up times,
// the host's steal share and the process's CPU time), then as the last line
// the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output check
// fails and 2 on bad arguments or a refused environment.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
        if (value != "0" && value != "1") return false;
      } else if (key == "--spans-out") {
        args.spans_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args.seconds >= 1;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <file>]\n");
    return 2;
  }
  // Injected faults would turn the figures into a robustness test, and
  // library-internal tracing would bias the untraced timings.
  if (const char* faults = std::getenv("PMTBR_FAULTS"); faults && *faults) {
    std::fprintf(stderr, "perfbench: refusing to run with PMTBR_FAULTS set\n");
    return 2;
  }
  if (const char* t = std::getenv("PMTBR_TRACE"); t && *t && std::strcmp(t, "0") != 0) {
    std::fprintf(stderr, "perfbench: refusing to run with PMTBR_TRACE set\n");
    return 2;
  }
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"nproc\": %d, \"pool_threads\": %d, \"load_avg_1m\": %.2f, "
      "\"PMTBR_CACHE_BYTES\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, perfbench::hardware_threads(), perfbench::pool_threads(),
      perfbench::load_average_1m(), env_or("PMTBR_CACHE_BYTES", "unset").c_str());

  perfbench::Report report;
  const perfbench::CpuTimes host_start = perfbench::host_cpu_times();
  try {
    if (args.workload == "mesh900_dense" || args.workload == "mesh10k_sparse") {
      perfbench::run_mesh(args, report);
    } else if (args.workload == "serve_mix") {
      perfbench::run_serve(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  report.record(perfbench::host_json(host_start, perfbench::host_cpu_times()));
  for (const std::string& line : report.records()) std::printf("%s\n", line.c_str());
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
