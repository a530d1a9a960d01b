#include "common.hpp"

#include <sys/resource.h>
#include <sys/sysinfo.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <thread>

#include "circuit/parser.hpp"
#include "util/obs/counters.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Counters counters_now() {
  Counters out;
  for (auto& [name, value] : pmtbr::obs::counters_snapshot()) out[name] = value;
  return out;
}

Counters counters_delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) out[name] = value - counter(before, name);
  return out;
}

std::int64_t counter(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

std::string counters_json(const Counters& c) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : c) {
    out += (first ? "\"" : ", \"") + name + "\": " + std::to_string(value);
    first = false;
  }
  return out + "}";
}

DescriptorSystem assemble_netlist(const std::string& text) {
  auto sys = pmtbr::circuit::try_assemble_netlist(text);
  if (!sys.is_ok()) throw std::runtime_error("netlist rejected: " + sys.status().to_string());
  return std::move(sys).value();
}

int hardware_threads() {
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

int pool_threads() { return std::min(4, hardware_threads()); }

void setup_pool(int threads) {
  pmtbr::util::set_global_threads(threads);
  pmtbr::util::parallel_for(0, 4 * threads, [](la::index) {});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

CpuTimes host_cpu_times() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (!(stat >> cpu) || cpu != "cpu") return t;
  long long v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

std::string host_json(const CpuTimes& from, const CpuTimes& to) {
  const long long total = to.total - from.total;
  const double steal =
      total > 0 ? static_cast<double>(to.steal - from.steal) / static_cast<double>(total) : 0.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return "{\"host\": {\"steal_share\": " + number(steal) + ", \"user_s\": " +
         number(secs(ru.ru_utime)) + ", \"sys_s\": " + number(secs(ru.ru_stime)) + "}}";
}

double load_average_1m() {
  struct sysinfo si {};
  if (sysinfo(&si) != 0) return -1.0;
  return static_cast<double>(si.loads[0]) / static_cast<double>(1U << SI_LOAD_SHIFT);
}

la::index expected_order(const std::vector<double>& sv, double tol, la::index max_order) {
  if (sv.empty()) return 1;
  const double limit = tol * sv.front();
  // tail[q] = sum of sv[q..]; the order is the smallest q with tail[q] <= limit.
  std::vector<double> tail(sv.size() + 1, 0.0);
  for (std::size_t i = sv.size(); i-- > 0;) tail[i] = tail[i + 1] + sv[i];
  std::size_t q = 0;
  while (q < sv.size() && tail[q] > limit) ++q;
  la::index order = static_cast<la::index>(q);
  if (max_order > 0) order = std::min(order, max_order);
  return std::max<la::index>(order, 1);
}

std::vector<double> check_grid(const mor::Band& band, int points,
                               const std::vector<mor::FrequencySample>& samples) {
  const double lo = std::max(band.f_lo, band.f_hi * 1e-6);
  const double ratio = band.f_hi / lo;
  std::vector<double> grid;
  for (int j = 0; j < points; ++j) {
    // Offsets of 0.37 of a log step keep the grid off the uniform and
    // logarithmic quadrature nodes.
    const double f = lo * std::pow(ratio, (j + 0.37) / points);
    for (const auto& fs : samples) {
      const double fs_hz = fs.s.imag() / (2.0 * std::numbers::pi);
      if (std::abs(fs_hz - f) <= 1e-6 * f)
        throw std::logic_error("check grid point coincides with a quadrature sample");
    }
    grid.push_back(f);
  }
  return grid;
}

std::vector<la::MatC> full_transfer(const DescriptorSystem& full,
                                    const std::vector<double>& grid_hz) {
  std::vector<la::MatC> out;
  for (double f : grid_hz) out.push_back(full.transfer(la::cd(0.0, 2.0 * std::numbers::pi * f)));
  return out;
}

double relative_h_error(const std::vector<la::MatC>& full, const mor::DenseSystem& reduced,
                        const std::vector<double>& grid_hz) {
  double worst = 0.0;
  for (std::size_t k = 0; k < grid_hz.size(); ++k) {
    const la::MatC& h = full[k];
    const la::MatC diff = reduced.transfer(la::cd(0.0, 2.0 * std::numbers::pi * grid_hz[k]));
    double num = 0.0, den = 0.0;
    for (la::index i = 0; i < h.rows(); ++i)
      for (la::index j = 0; j < h.cols(); ++j) {
        num += std::norm(h(i, j) - diff(i, j));
        den += std::norm(h(i, j));
      }
    worst = std::max(worst, std::sqrt(num / den));
  }
  return worst;
}

bool bit_identical(const mor::PmtbrResult& a, const mor::PmtbrResult& b) {
  if (a.model.singular_values != b.model.singular_values) return false;
  const la::MatD& aa = a.model.system.a();
  const la::MatD& ba = b.model.system.a();
  if (aa.rows() != ba.rows() || aa.cols() != ba.cols()) return false;
  for (la::index i = 0; i < aa.rows(); ++i)
    for (la::index j = 0; j < aa.cols(); ++j)
      if (aa(i, j) != ba(i, j)) return false;
  return true;
}

}  // namespace perfbench
