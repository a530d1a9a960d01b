#include "stats.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, int percent) {
  if (percent <= 0 || percent >= 100) throw std::invalid_argument("percent must be in (0, 100)");
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least percent% of the sample
  // at or below it; integer arithmetic avoids 0.9 * 100 rounding.
  const std::size_t rank = (static_cast<std::size_t>(percent) * n + 99) / 100;
  if (rank == 0 || n - rank < static_cast<std::size_t>(kTailSupport)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[rank - 1];
}

Tail latency_tail(const std::vector<double>& samples) {
  if (const auto p90 = tail_percentile(samples, 90)) return {*p90, 90};
  return {median(samples), 50};
}

double max_of(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("max of an empty sample");
  return *std::max_element(samples.begin(), samples.end());
}

double sum_of(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

}  // namespace perfbench
