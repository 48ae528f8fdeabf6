// Exact-sample statistics of the repository benchmark (perfbench/README.md).
// Header-only and free of the library layers, so perfbench_selftest checks
// it without building a service.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of exact samples: the smallest sample with at
/// least a share `q` of the samples at or below it.  0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The highest percentile, at most `cap`, that leaves at least `beyond`
/// samples strictly above its nearest rank.  Falls back to the median when
/// fewer than 2 * `beyond` samples exist (no tail is resolvable then).
inline double tail_quantile_level(std::size_t n, double cap = 0.99,
                                  std::size_t beyond = 10) {
  if (n < 2 * beyond) return 0.5;
  const double q = static_cast<double>(n - beyond) / static_cast<double>(n);
  return std::min(cap, q);
}

/// A tail statistic together with the percentile it was taken at and the
/// sample count, as every reported tail states them.
struct Tail {
  double level = 0.5;  ///< quantile level actually used (0.99 = p99)
  double value = 0;
  std::size_t n = 0;
};

inline Tail tail(const std::vector<double>& v, double cap = 0.99) {
  Tail t;
  t.n = v.size();
  t.level = tail_quantile_level(v.size(), cap);
  t.value = quantile(v, t.level);
  return t;
}

}  // namespace perfbench
