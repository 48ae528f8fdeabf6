#include "sw/affine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sw/full_matrix.h"

namespace gdsm {
namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

// Dense (m+1) x (n+1) int grid.
class Grid {
 public:
  Grid(std::size_t m, std::size_t n, int fill)
      : cols_(n + 1), cells_((m + 1) * (n + 1), fill) {}
  int& at(std::size_t i, std::size_t j) { return cells_[i * cols_ + j]; }
  int at(std::size_t i, std::size_t j) const { return cells_[i * cols_ + j]; }

 private:
  std::size_t cols_;
  std::vector<int> cells_;
};

// Shared Gotoh fill; `local` floors H at zero and zeroes the borders.
struct Filled {
  Grid h, e, f;
  MatrixBest best;
};

Filled gotoh_fill(const Sequence& s, const Sequence& t,
                  const AffineScheme& sc, bool local) {
  const std::size_t m = s.size();
  const std::size_t n = t.size();
  Filled out{Grid(m, n, 0), Grid(m, n, kNegInf), Grid(m, n, kNegInf),
             MatrixBest{}};
  if (!local) {
    for (std::size_t i = 1; i <= m; ++i) {
      out.h.at(i, 0) = sc.gap_open + static_cast<int>(i) * sc.gap_extend;
    }
    for (std::size_t j = 1; j <= n; ++j) {
      out.h.at(0, j) = sc.gap_open + static_cast<int>(j) * sc.gap_extend;
    }
  }
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const int e = std::max(out.h.at(i, j - 1) + sc.gap_open + sc.gap_extend,
                             out.e.at(i, j - 1) + sc.gap_extend);
      const int f = std::max(out.h.at(i - 1, j) + sc.gap_open + sc.gap_extend,
                             out.f.at(i - 1, j) + sc.gap_extend);
      int h = std::max(
          {out.h.at(i - 1, j - 1) + sc.substitution(s[i - 1], t[j - 1]), e, f});
      if (local) h = std::max(h, 0);
      out.e.at(i, j) = e;
      out.f.at(i, j) = f;
      out.h.at(i, j) = h;
      if (h > out.best.score) out.best = MatrixBest{h, i, j};
    }
  }
  return out;
}

Alignment gotoh_traceback(const Filled& m_, const Sequence& s, const Sequence& t,
                          const AffineScheme& sc, std::size_t i, std::size_t j,
                          bool local) {
  enum State { kH, kE, kF };
  State state = kH;
  std::vector<Op> rev;
  Alignment out;
  out.score = m_.h.at(i, j);
  while (i > 0 || j > 0) {
    if (state == kH) {
      const int v = m_.h.at(i, j);
      if (local && v == 0) break;
      if (i > 0 && j > 0 &&
          v == m_.h.at(i - 1, j - 1) + sc.substitution(s[i - 1], t[j - 1])) {
        rev.push_back(Op::Diag);
        --i;
        --j;
        continue;
      }
      if (j > 0 && v == m_.e.at(i, j)) {
        state = kE;
        continue;
      }
      if (i > 0 && v == m_.f.at(i, j)) {
        state = kF;
        continue;
      }
      if (local) break;
      // Global border runs (first row/column).
      if (i == 0 && j > 0) {
        rev.push_back(Op::Left);
        --j;
        continue;
      }
      if (j == 0 && i > 0) {
        rev.push_back(Op::Up);
        --i;
        continue;
      }
      throw std::logic_error("gotoh_traceback: inconsistent H matrix");
    }
    if (state == kE) {
      rev.push_back(Op::Left);
      const int v = m_.e.at(i, j);
      if (j > 1 && v == m_.e.at(i, j - 1) + sc.gap_extend) {
        --j;
        continue;  // stay in E
      }
      --j;
      state = kH;
      continue;
    }
    // state == kF
    rev.push_back(Op::Up);
    const int v = m_.f.at(i, j);
    if (i > 1 && v == m_.f.at(i - 1, j) + sc.gap_extend) {
      --i;
      continue;
    }
    --i;
    state = kH;
  }
  out.s_begin = i;
  out.t_begin = j;
  out.ops.assign(rev.rbegin(), rev.rend());
  return out;
}

}  // namespace

Alignment smith_waterman_affine(const Sequence& s, const Sequence& t,
                                const AffineScheme& scheme) {
  const Filled filled = gotoh_fill(s, t, scheme, /*local=*/true);
  if (filled.best.score <= 0) return Alignment{};
  return gotoh_traceback(filled, s, t, scheme, filled.best.i, filled.best.j,
                         /*local=*/true);
}

Alignment smith_waterman_affine_ending_at(const Sequence& s, const Sequence& t,
                                          const AffineScheme& scheme,
                                          std::size_t end_i,
                                          std::size_t end_j) {
  if (end_i == 0 || end_j == 0 || end_i > s.size() || end_j > t.size()) {
    throw std::invalid_argument("smith_waterman_affine_ending_at: bad cell");
  }
  const Filled filled = gotoh_fill(s, t, scheme, /*local=*/true);
  return gotoh_traceback(filled, s, t, scheme, end_i, end_j, /*local=*/true);
}

Alignment needleman_wunsch_affine(const Sequence& s, const Sequence& t,
                                  const AffineScheme& scheme) {
  const Filled filled = gotoh_fill(s, t, scheme, /*local=*/false);
  return gotoh_traceback(filled, s, t, scheme, s.size(), t.size(),
                         /*local=*/false);
}

BestLocal sw_best_score_affine_linear(const Sequence& s, const Sequence& t,
                                      const AffineScheme& sc) {
  // Same orientation rule as sw_best_score_linear: scan the transposed
  // matrix when t is longer, so ties break the way that scan breaks them.
  if (t.size() > s.size()) {
    BestLocal r = sw_best_score_affine_linear(t, s, sc);
    std::swap(r.end_i, r.end_j);
    return r;
  }
  const std::size_t m = s.size();
  const std::size_t n = t.size();
  std::vector<int> h_prev(n + 1, 0), h_cur(n + 1, 0);
  std::vector<int> f_prev(n + 1, kNegInf), f_cur(n + 1, kNegInf);
  BestLocal best;
  for (std::size_t i = 1; i <= m; ++i) {
    h_cur[0] = 0;
    int e = kNegInf;
    const Base si = s[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      e = std::max(h_cur[j - 1] + sc.gap_open + sc.gap_extend,
                   e + sc.gap_extend);
      const int f = std::max(h_prev[j] + sc.gap_open + sc.gap_extend,
                             f_prev[j] + sc.gap_extend);
      const int h = std::max(
          {0, h_prev[j - 1] + sc.substitution(si, t[j - 1]), e, f});
      h_cur[j] = h;
      f_cur[j] = f;
      if (h > best.score) best = BestLocal{h, i, j};
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return best;
}

int affine_alignment_score(const Alignment& al, const Sequence& s,
                           const Sequence& t, const AffineScheme& scheme) {
  int total = 0;
  std::size_t i = al.s_begin;
  std::size_t j = al.t_begin;
  Op prev = Op::Diag;
  bool first = true;
  for (Op op : al.ops) {
    switch (op) {
      case Op::Diag:
        total += scheme.substitution(s[i], t[j]);
        ++i;
        ++j;
        break;
      case Op::Up:
        if (first || prev != Op::Up) total += scheme.gap_open;
        total += scheme.gap_extend;
        ++i;
        break;
      case Op::Left:
        if (first || prev != Op::Left) total += scheme.gap_open;
        total += scheme.gap_extend;
        ++j;
        break;
    }
    prev = op;
    first = false;
  }
  return total;
}

}  // namespace gdsm
