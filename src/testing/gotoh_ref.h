// Independent serial Gotoh reference for the differential oracle.
//
// The production affine paths share code: the SIMD kernels feed
// sw_best_score_linear, the strategies, and the service alike, and
// sw/affine.cpp backs both the linear-space scan and the rebuild fallback.
// This file is the deliberately naive judge that shares nothing with them —
// a dense three-matrix Gotoh fill written straight from the recurrence, so
// a bug in the shared kernels cannot agree with itself across the oracle's
// cross-check.
#pragma once

#include "sw/linear_score.h"
#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm::testing {

/// Best local score and end cell under the scheme's gap model — affine
/// (Gotoh) when scheme.gap_open != 0, plain linear otherwise.  Ties break
/// like sw_best_score_linear (see BestLocal): first maximum in row-major
/// order, over the transposed matrix when |t| > |s|.  Dense O(mn) space;
/// oracle-sized inputs only.
BestLocal gotoh_best_ref(const Sequence& s, const Sequence& t,
                         const ScoreScheme& scheme);

}  // namespace gdsm::testing
