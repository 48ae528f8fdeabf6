#include "sw/heuristic_scan.h"

#include <algorithm>
#include <cassert>

namespace gdsm {

CellInfo HeuristicKernel::update_cell(Base s_char, Base t_char, std::uint32_t row,
                                      std::uint32_t col, const CellInfo& diag,
                                      const CellInfo& up, const CellInfo& left,
                                      CandidateSink& sink) const {
  const int sub = scheme_.substitution(s_char, t_char);
  const bool affine = scheme_.affine();
  const int from_diag = diag.score + sub;
  // Under the affine model the Up/Left arrivals are the Gotoh gap states:
  // open a fresh run from the neighbour's score or extend its running one.
  // Linear is the open == 0 degenerate (H >= E/F makes the fresh branch win
  // or tie, so the values — and therefore the tie-breaks — are unchanged).
  const int from_up =
      affine ? std::max(up.score + scheme_.gap_open + scheme_.gap,
                        up.f + scheme_.gap)
             : up.score + scheme_.gap;
  const int from_left =
      affine ? std::max(left.score + scheme_.gap_open + scheme_.gap,
                        left.e + scheme_.gap)
             : left.score + scheme_.gap;
  const int best = std::max({0, from_diag, from_up, from_left});

  if (best == 0) {
    // Eq. (1) floor: no alignment ends here; the cell restarts empty.  The
    // gap states restart too (E, F <= H = 0 here, so nothing positive is
    // ever discarded).
    return CellInfo{};
  }

  // Select the origin entry.  Among predecessors achieving `best`, the one
  // with the largest path weight (2*matches + 2*mismatches + gaps) wins;
  // remaining ties prefer horizontal, then vertical, then diagonal
  // (Section 4.1).
  enum { kLeft, kUp, kDiag };
  int origin = -1;
  std::int64_t origin_weight = -1;
  auto consider = [&](int which, int value, const CellInfo& cell) {
    if (value != best) return;
    const std::int64_t w = cell.tie_weight();
    if (w > origin_weight) {
      origin = which;
      origin_weight = w;
    }
  };
  consider(kLeft, from_left, left);
  consider(kUp, from_up, up);
  consider(kDiag, from_diag, diag);
  assert(origin >= 0);

  CellInfo cur = origin == kLeft ? left : origin == kUp ? up : diag;
  cur.score = best;
  if (affine) {
    cur.e = from_left;  // this cell's Gotoh gap states, read by (i, j+1)
    cur.f = from_up;    // and (i+1, j) regardless of the origin chosen
  } else {
    cur.e = kCellNegInf;
    cur.f = kCellNegInf;
  }
  cur.weight += origin == kDiag ? 2 : 1;

  // Running extrema of the inherited path.
  if (cur.score > cur.max_score) {
    cur.max_score = cur.score;
    cur.max_i = row;
    cur.max_j = col;
  }
  if (cur.score < cur.min_score) {
    cur.min_score = cur.score;
    if (!cur.flag) {
      // While no candidate is open we are watching for a RISE of
      // open_threshold; a new minimum restarts that window, otherwise a
      // stale maximum could open a candidate on a *decline* and yield
      // end coordinates that precede the start.
      cur.max_score = cur.score;
      cur.max_i = row;
      cur.max_j = col;
    }
  }

  // Close: score dropped close_drop below the running maximum.
  if (cur.flag && cur.score <= cur.max_score - params_.close_drop) {
    sink.close(cur);
    cur.flag = 0;
    // Restart the extremum window so the same path can later reopen; the
    // path weight is intentionally NOT reset (Section 4.1).
    cur.max_score = cur.min_score = cur.score;
    cur.max_i = row;
    cur.max_j = col;
  }

  // Open: score rose open_threshold above the running minimum.
  if (!cur.flag && cur.max_score >= cur.min_score + params_.open_threshold) {
    cur.flag = 1;
    cur.begin_i = row;
    cur.begin_j = col;
  }
  return cur;
}

void HeuristicKernel::process_row_segment(Base s_char, std::uint32_t row,
                                          std::span<const Base> t_cols,
                                          std::uint32_t col_begin,
                                          std::span<const CellInfo> prev,
                                          const CellInfo& diag_left,
                                          const CellInfo& left,
                                          std::span<CellInfo> out,
                                          CandidateSink& sink) const {
  assert(t_cols.size() == prev.size());
  assert(t_cols.size() == out.size());
  assert(out.data() != prev.data());
  const CellInfo* diag = &diag_left;
  const CellInfo* west = &left;
  for (std::size_t k = 0; k < t_cols.size(); ++k) {
    out[k] = update_cell(s_char, t_cols[k], row,
                         col_begin + static_cast<std::uint32_t>(k), *diag,
                         prev[k], *west, sink);
    diag = &prev[k];
    west = &out[k];
  }
}

void HeuristicKernel::process_block(const simd::CandBlock& blk,
                                    CandidateSink& sink) const {
  const std::size_t H = blk.rows;
  const std::size_t W = blk.cols;
  const std::span<const Base> t_cols(blk.t_seq, W);
  std::vector<CellInfo> prev(blk.top, blk.top + W);
  std::vector<CellInfo> cur(W);
  blk.right[0] = blk.top[W - 1];
  for (std::size_t r = 0; r < H; ++r) {
    process_row_segment(blk.s_seq[r], blk.row0 + static_cast<std::uint32_t>(r),
                        t_cols, blk.col0, prev, blk.left[r], blk.left[r + 1],
                        cur, sink);
    blk.right[r + 1] = cur.back();
    std::swap(prev, cur);
  }
  std::copy(prev.begin(), prev.end(), blk.bottom);
}

std::vector<Candidate> heuristic_scan(const Sequence& s, const Sequence& t,
                                      const ScoreScheme& scheme,
                                      const HeuristicParams& params) {
  const HeuristicKernel kernel(scheme, params);
  CandidateSink sink(params);
  const std::size_t m = s.size();
  const std::size_t n = t.size();

  // Two linear arrays, exactly as in Section 4.1.
  std::vector<CellInfo> reading(n);
  std::vector<CellInfo> writing(n);
  const CellInfo zero{};

  for (std::size_t i = 1; i <= m; ++i) {
    kernel.process_row_segment(s[i - 1], static_cast<std::uint32_t>(i),
                               t.bases(), /*col_begin=*/1, reading, zero, zero,
                               writing, sink);
    std::swap(reading, writing);
  }
  // Candidates still open at the bottom of the matrix.
  for (const CellInfo& cell : reading) sink.flush_open(cell);

  std::vector<Candidate> queue = std::move(sink.queue());
  finalize_candidates(queue);
  return queue;
}

}  // namespace gdsm
