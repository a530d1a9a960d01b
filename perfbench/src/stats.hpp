// Order statistics for the benchmark's reported timings.
#pragma once

#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr int kTailSupport = 10;

/// Median (mean of the two middle values for an even count). Requires a
/// nonempty sample.
double median(std::vector<double> samples);

/// Nearest-rank `percent`-th percentile, or nullopt when fewer than
/// kTailSupport samples lie beyond it: a p90 needs at least 100 samples.
std::optional<double> tail_percentile(std::vector<double> samples, int percent);

/// The reported latency tail: the p90 when kTailSupport samples lie beyond
/// it, else the median (a run of a few long reductions supports no tail
/// above its median).
struct Tail {
  double value = 0.0;
  int percent = 50;
};
Tail latency_tail(const std::vector<double>& samples);

double max_of(const std::vector<double>& samples);
double sum_of(const std::vector<double>& samples);

}  // namespace perfbench
