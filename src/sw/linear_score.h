// Linear-space score-only dynamic programming passes.
//
// sw_best_score_linear is step 1 of the Section 6 exact method: find the
// best local score and its end cell using two rows of memory.  nw_last_row
// is the building block of Hirschberg's linear-space global alignment.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm {

/// Best local alignment score and the (1-based) matrix cell where it ends.
/// On ties the first cell in the scan's orientation wins: row-major (i, j)
/// order, matching sw_fill, when |t| <= |s|; column-major (j, i) order when
/// |t| > |s|, because the scan then runs over the transposed matrix (see
/// sw_best_score_linear).
struct BestLocal {
  int score = 0;
  std::size_t end_i = 0;  ///< 1-based: alignment consumes s[1..end_i]
  std::size_t end_j = 0;  ///< 1-based: alignment consumes t[1..end_j]
};

/// O(min(m,n)) extra space, O(mn) time.  When |t| < |s| the scan internally
/// transposes the problem (similarity is symmetric) so the row buffer is as
/// short as possible — the "shorter input string will index the rows" remark
/// of Section 6.  Despite the historical name this honours both gap models:
/// an affine scheme (gap_open != 0) routes to the Gotoh kernels underneath.
BestLocal sw_best_score_linear(const Sequence& s, const Sequence& t,
                               const ScoreScheme& scheme = {});

/// All cells with score >= threshold, streamed to a callback as (i, j, score)
/// with 1-based coordinates.  This is the "scoreboard of points of interest"
/// used by the pre-process strategy's result matrix.
void sw_scan_hits(const Sequence& s, const Sequence& t, const ScoreScheme& scheme,
                  int threshold,
                  const std::function<void(std::size_t, std::size_t, int)>& hit);

/// Last row of the Needleman–Wunsch matrix of s versus t: entry j is the
/// global-alignment score of the whole of s against t[1..j].
std::vector<int> nw_last_row(const Sequence& s, const Sequence& t,
                             const ScoreScheme& scheme);

}  // namespace gdsm
