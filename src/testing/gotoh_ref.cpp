#include "testing/gotoh_ref.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace gdsm::testing {

BestLocal gotoh_best_ref(const Sequence& s, const Sequence& t,
                         const ScoreScheme& sc) {
  if (t.size() > s.size()) {
    BestLocal r = gotoh_best_ref(t, s, sc);
    std::swap(r.end_i, r.end_j);
    return r;
  }
  constexpr int kNegInf = std::numeric_limits<int>::min() / 4;
  const std::size_t m = s.size();
  const std::size_t n = t.size();
  const std::size_t cols = n + 1;
  // Dense H/E/F, (m+1) x (n+1).  With gap_open == 0 the E/F states collapse
  // onto the linear recurrence (H >= E, F everywhere), so one code path
  // covers both gap models without branching on the scheme.
  std::vector<int> h((m + 1) * cols, 0);
  std::vector<int> e((m + 1) * cols, kNegInf);
  std::vector<int> f((m + 1) * cols, kNegInf);
  BestLocal best;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::size_t c = i * cols + j;
      e[c] = std::max(h[c - 1] + sc.gap_open + sc.gap, e[c - 1] + sc.gap);
      f[c] = std::max(h[c - cols] + sc.gap_open + sc.gap, f[c - cols] + sc.gap);
      const int diag =
          h[c - cols - 1] + sc.substitution(s[i - 1], t[j - 1]);
      const int v = std::max({0, diag, e[c], f[c]});
      h[c] = v;
      if (v > best.score) best = BestLocal{v, i, j};
    }
  }
  return best;
}

}  // namespace gdsm::testing
