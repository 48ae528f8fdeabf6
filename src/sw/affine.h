// Affine-gap alignment (Gotoh 1982): gap cost = open + k * extend.
//
// The paper uses linear gap costs (-2 per space).  Affine penalties are the
// standard extension every production aligner provides (and what the real
// BlastN uses); we implement the full-matrix local/global variants with
// traceback plus a linear-space score-only scan, mirroring the linear-gap
// API so the strategies could be lifted onto it.
#pragma once

#include "sw/alignment.h"
#include "sw/linear_score.h"
#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm {

/// Affine scoring: a gap run of length k costs gap_open + k * gap_extend
/// (both negative).  With gap_open == 0 this degenerates to the linear
/// scheme with gap == gap_extend.
struct AffineScheme {
  int match = 1;
  int mismatch = -1;
  int gap_open = -2;
  int gap_extend = -1;

  constexpr int substitution(Base a, Base b) const noexcept {
    return (a == b && a != kBaseN) ? match : mismatch;
  }
};

/// The two scheme structs describe the same cost family: ScoreScheme carries
/// gap_open (0 = linear) next to `gap` as the extension cost, AffineScheme
/// names the fields explicitly.  The converters are exact in both directions,
/// including the degenerate open == 0 case.
constexpr AffineScheme to_affine(const ScoreScheme& sc) noexcept {
  return AffineScheme{sc.match, sc.mismatch, sc.gap_open, sc.gap};
}
constexpr ScoreScheme to_scheme(const AffineScheme& sc) noexcept {
  return ScoreScheme{sc.match, sc.mismatch, sc.gap_extend, sc.gap_open};
}

/// Best local alignment under affine gaps (Gotoh's three-matrix recurrence),
/// with full traceback.  O(mn) time and space.
Alignment smith_waterman_affine(const Sequence& s, const Sequence& t,
                                const AffineScheme& scheme = {});

/// Local affine alignment forced to end at matrix cell (end_i, end_j),
/// 1-based — the traceback the windowed rebuild fallback needs when the end
/// cell is known but is not the global best of the window.
Alignment smith_waterman_affine_ending_at(const Sequence& s, const Sequence& t,
                                          const AffineScheme& scheme,
                                          std::size_t end_i, std::size_t end_j);

/// Global alignment under affine gaps, with full traceback.
Alignment needleman_wunsch_affine(const Sequence& s, const Sequence& t,
                                  const AffineScheme& scheme = {});

/// Linear-space best local score and end cell under affine gaps.  Like
/// sw_best_score_linear it scans the transposed matrix when |t| > |s|, so
/// its ties break in the same orientation (see BestLocal).
BestLocal sw_best_score_affine_linear(const Sequence& s, const Sequence& t,
                                      const AffineScheme& scheme = {});

/// Score of an explicit alignment under affine gaps (each maximal run of
/// Up/Left ops is one gap).
int affine_alignment_score(const Alignment& al, const Sequence& s,
                           const Sequence& t, const AffineScheme& scheme);

}  // namespace gdsm
