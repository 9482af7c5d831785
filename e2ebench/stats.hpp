// Small statistics and timing helpers of the end-to-end benchmark.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 for an empty sample).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A tail percentile that is backed by data: the requested quantile `q`
/// when at least ten samples lie beyond it, otherwise the highest
/// quantile that still has ten samples beyond it (the median when the
/// sample is too small for even that).
struct Tail {
  double value = 0.0;
  double quantile = 0.0;  // the quantile actually reported
  std::size_t samples = 0;
};

inline Tail tail_percentile(std::vector<double> v, double q) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double used = q;
  if (n * (1.0 - q) < 10.0) used = std::max(0.5, 1.0 - 10.0 / n);
  // Nearest rank: index ceil(used * n) - 1 leaves n - ceil(used * n)
  // samples strictly beyond the reported one.
  const std::size_t rank = static_cast<std::size_t>(std::ceil(used * n));
  t.value = v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
  t.quantile = used;
  return t;
}

/// Geometric mean of positive values (0 when any is non-positive or the
/// list is empty), so problems of very different cost weigh equally.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace e2ebench
