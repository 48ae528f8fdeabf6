// Candidate-tracking block kernel: the Section 4.1 heuristic recurrence
// (Martins-style candidate tracking) over one rectangular block with
// boundary rows, vectorised as an anti-diagonal strip sweep.
//
// This is the per-cell record and block contract the heuristic strategies'
// band/block loop (core/band_compute.h) hands to the kernel layer.  The
// record type lives here rather than in sw/heuristic_scan.h so the strip
// kernels can read and write block edges in place without the kernel layer
// depending on the alignment layer; sw/heuristic_scan.h names it CellInfo.
//
// The scalar reference of the same contract is
// HeuristicKernel::process_block (sw/heuristic_scan.h), the row-segment loop
// the serial scan uses.  Only vector backends implement cand_block here; the
// dispatched entry (simd/dispatch.h) reports whether the active backend has
// one, and callers run the scalar reference when it does not.
// docs/KERNELS.md ("Candidate-tracking strip kernel") has the lane layout
// and the event-order argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "simd/kernels.h"

namespace gdsm::simd {

/// Per-cell record of the candidate-tracking scan.  It is also the value
/// transmitted between processors at partition borders, so it is kept
/// trivially copyable and fixed-size (44 bytes).
///
/// The affine gap model (gap_open != 0) adds the two Gotoh gap-state values
/// `e` (gap run consuming t-characters, fed from the left) and `f` (gap run
/// consuming s-characters, fed from above).  Under the linear model both
/// stay at kNegInf everywhere.
struct CandCell {
  std::int32_t score = 0;      ///< sim(s[1..i], t[1..j])
  std::int32_t max_score = 0;  ///< running maximum along the inherited path
  std::int32_t min_score = 0;  ///< running minimum along the inherited path
  std::int32_t e = kNegInf;    ///< Gotoh E state (horizontal run), affine only
  std::int32_t f = kNegInf;    ///< Gotoh F state (vertical run), affine only
  std::uint32_t begin_i = 0;   ///< candidate start row (1-based), valid when open
  std::uint32_t begin_j = 0;   ///< candidate start column (1-based)
  std::uint32_t max_i = 0;     ///< cell where max_score was reached
  std::uint32_t max_j = 0;
  /// Path weight: +2 per diagonal step, +1 per gap step, never reset (the
  /// paper's 2*matches + 2*mismatches + gaps counter).  At most 2*(m+n).
  std::uint32_t weight = 0;
  std::uint8_t flag = 0;       ///< 1 while a candidate alignment is open

  /// Tie-break weight: gaps are penalized relative to aligned columns.
  std::int64_t tie_weight() const noexcept { return weight; }

  friend bool operator==(const CandCell&, const CandCell&) = default;
};

static_assert(std::is_trivially_copyable_v<CandCell>,
              "CandCell crosses DSM borders as raw bytes");
static_assert(sizeof(CandCell) == 44);

/// Recurrence costs plus the Section 4.1 open/close thresholds
/// (HeuristicKernel::cand_params() fills it from the scan's parameters).
struct CandParams {
  ScoreParams score;
  std::int32_t open_threshold = 0;
  std::int32_t close_drop = 0;
};

/// One block of the candidate-tracking matrix.  Rows run over s (the
/// band's rows), columns over t.  All pointers are borrowed and must not
/// alias each other.
struct CandBlock {
  const Base* s_seq = nullptr;  ///< the block's row characters, `rows` of them
  std::size_t rows = 0;         ///< >= 1
  const Base* t_seq = nullptr;  ///< the block's column characters
  std::size_t cols = 0;         ///< >= 1
  std::uint32_t row0 = 1;       ///< 1-based matrix row of the block's first row
  std::uint32_t col0 = 1;       ///< 1-based matrix column of its first column
  const CandCell* top = nullptr;  ///< `cols` cells: the row above the block
  /// `rows + 1` cells: [0] the cell above-left of the block, [1 + r] the
  /// cell left of row r.
  const CandCell* left = nullptr;
  CandCell* bottom = nullptr;  ///< out: `cols` cells, the block's last row
  /// out: `rows + 1` cells, [0] = top[cols - 1], [1 + r] the block's last
  /// column at row r — the next block's `left`.
  CandCell* right = nullptr;
};

/// One candidate closed inside a block: the cell (row, col), 1-based, and
/// the closing record's fields CandidateSink reads.
struct CandClose {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  std::int32_t max_score = 0;
  std::uint32_t begin_i = 0;
  std::uint32_t begin_j = 0;
  std::uint32_t max_i = 0;
  std::uint32_t max_j = 0;
};

#if GDSM_SIMD_AVX2
namespace avx2 {
/// Computes the block, writes both output edges and replaces `closes` with
/// the block's close events in row-major (row, then column) order — the
/// order the scalar row-segment loop emits them in.
void cand_block(const CandBlock& blk, const CandParams& cp,
                std::vector<CandClose>* closes);
}  // namespace avx2
#endif

}  // namespace gdsm::simd
