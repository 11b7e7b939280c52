#pragma once
// Summary statistics of the benchmark's samples. Percentiles use the
// nearest-rank definition, so a reported percentile is always one of the
// measured samples and the count of samples beyond it is exact.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// beyond it (the benchmark's tail rule).
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of percentile p (0 < p <= 1) among n samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// Fewest samples for which the p-th percentile has kTailSamples beyond it.
inline std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < kTailSamples) ++n;
  return n;
}

/// Nearest-rank percentile of `v` (0 for an empty sample).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace perfbench
