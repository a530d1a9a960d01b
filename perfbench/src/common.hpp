// Shared plumbing of the benchmark: run arguments, the result report,
// counter deltas, pool set-up and the output checks on reduced models.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/descriptor.hpp"
#include "mor/pmtbr.hpp"
#include "spans.hpp"

namespace perfbench {

namespace la = pmtbr::la;
namespace mor = pmtbr::mor;
namespace sparse = pmtbr::sparse;
using pmtbr::DescriptorSystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_out;  // traced run: where the span log is written
};

/// The run's result. `metrics` keeps insertion order; the last stdout line
/// is {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (the run then reports correct=false).
  void check(bool ok, const std::string& what);
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  std::string json() const;
  /// Extra stdout lines printed before the result (one JSON object each).
  void record(std::string line) { records_.push_back(std::move(line)); }
  const std::vector<std::string>& records() const { return records_; }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> records_;
};

/// obs::counters_snapshot() keyed by name. Deltas iterate names, never
/// enum members, so a counter the library drops simply disappears here.
using Counters = std::map<std::string, std::int64_t>;
Counters counters_now();
Counters counters_delta(const Counters& before, const Counters& after);
std::int64_t counter(const Counters& c, const std::string& name);  // 0 when absent
std::string counters_json(const Counters& c);

/// circuit::try_assemble_netlist, throwing on rejected text (the benchmark
/// generates its inputs, so a rejection is a benchmark bug).
DescriptorSystem assemble_netlist(const std::string& text);

int hardware_threads();
/// Pool size the benchmark runs with: min(4, hardware threads).
int pool_threads();
/// Replaces the global pool and touches it once (first-use cost is part of
/// set-up, not of the first reduction).
void setup_pool(int threads);

double peak_rss_mb();
double load_average_1m();

/// Jiffies of the whole machine from the first line of /proc/stat (zeros
/// when it is unreadable). A run records the share the hypervisor stole
/// while it ran: the host, not the program, sets that share.
struct CpuTimes {
  long long steal = 0;
  long long total = 0;
};
CpuTimes host_cpu_times();
/// {"host": {...}}: steal share between the two snapshots and the process's
/// user and system CPU seconds so far.
std::string host_json(const CpuTimes& from, const CpuTimes& to);

/// Order the paper's tail rule gives for these singular values (smallest q
/// with sum_{i>q} sigma_i <= tol * sigma_1), capped by max_order, at least 1.
/// Written here from the definition, independently of the library.
la::index expected_order(const std::vector<double>& sv, double tol, la::index max_order);

/// Check frequencies (Hz): log-spaced over the band, offset from every
/// quadrature sample of the workload.
std::vector<double> check_grid(const mor::Band& band, int points,
                               const std::vector<mor::FrequencySample>& samples);

/// H(j 2 pi f) of the full system at every grid frequency.
std::vector<la::MatC> full_transfer(const DescriptorSystem& full,
                                    const std::vector<double>& grid_hz);

/// max over the grid of ||H - H_r||_F / ||H||_F, H from full_transfer().
double relative_h_error(const std::vector<la::MatC>& full, const mor::DenseSystem& reduced,
                        const std::vector<double>& grid_hz);

/// Entrywise equality of singular values and reduced A.
bool bit_identical(const mor::PmtbrResult& a, const mor::PmtbrResult& b);

}  // namespace perfbench
