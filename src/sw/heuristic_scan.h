// The heuristic linear-space Smith–Waterman variant of Section 4.1
// (Martins et al.'s candidate-alignment tracking).
//
// Instead of retaining the O(n^2) similarity array, every DP cell carries a
// small record (current/max/min score, candidate coordinates, a path
// weight, an "open candidate" flag).  Candidate alignments are *opened*
// when the score rises `open_threshold` above the running minimum and
// *closed* (pushed to the queue) when it falls `close_drop` below the
// running maximum.  When several predecessors tie for the cell score, the
// origin with the largest path weight (the paper's 2*matches +
// 2*mismatches + gaps counter, kept as one sum) wins; remaining ties prefer
// the horizontal, then vertical, then diagonal arrow (keeping gap runs
// together, per the paper).
//
// The row-segment kernel below is shared verbatim by the serial scan and by
// the parallel heuristic strategies: a parallel worker owns a column range
// and feeds the kernel the border cells received from its left neighbour,
// which is exactly the information the paper passes between processors.
// The blocked strategies run whole blocks through the AVX2 strip kernel
// (simd/cand_kernel.h) when the active backend has one; process_block is
// its scalar reference, and the serial scan always stays scalar.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simd/cand_kernel.h"
#include "sw/alignment.h"
#include "sw/scoring.h"
#include "util/sequence.h"

namespace gdsm {

/// Tunable thresholds of the Section 4.1 heuristics.
struct HeuristicParams {
  int open_threshold = 6;   ///< rise above the running minimum that opens a candidate
  int close_drop = 4;       ///< fall below the running maximum that closes it
  int min_report_score = 10;///< candidates below this score are discarded
};

/// "minus infinity" for the affine gap-state fields of CellInfo: boundary
/// cells carry it so no gap run continues across the matrix edge.  Deep
/// enough to never win, shallow enough that one extension cannot underflow.
inline constexpr std::int32_t kCellNegInf = simd::kNegInf;

/// Per-cell record of the heuristic scan (current/max/min score, E/F gap
/// states, candidate and maximum coordinates, path weight, open flag).  The
/// type is defined next to the vector strip kernels (simd/cand_kernel.h),
/// which read and write block edges of it directly; this layer owns its
/// semantics, implemented by HeuristicKernel::update_cell below.
using CellInfo = simd::CandCell;

/// Streaming sink for closed candidates.
class CandidateSink {
 public:
  explicit CandidateSink(const HeuristicParams& params) : params_(params) {}

  /// Closes the candidate recorded in `cell` if it clears the report bar.
  void close(const CellInfo& cell) {
    report(cell.max_score, cell.begin_i, cell.max_i, cell.begin_j, cell.max_j);
  }

  /// Replays a close event of the candidate strip kernel.
  void close(const simd::CandClose& ev) {
    report(ev.max_score, ev.begin_i, ev.max_i, ev.begin_j, ev.max_j);
  }

  /// Flushes a still-open candidate at the end of the scan.
  void flush_open(const CellInfo& cell) {
    if (cell.flag) close(cell);
  }

  std::vector<Candidate>& queue() { return queue_; }
  const std::vector<Candidate>& queue() const { return queue_; }

 private:
  void report(std::int32_t score, std::uint32_t s_begin, std::uint32_t s_end,
              std::uint32_t t_begin, std::uint32_t t_end) {
    if (score >= params_.min_report_score) {
      queue_.push_back(Candidate{score, s_begin, s_end, t_begin, t_end});
    }
  }

  HeuristicParams params_;
  std::vector<Candidate> queue_;
};

/// The row-segment kernel.  Stateless apart from its parameters, so one
/// instance can be shared by all workers.
class HeuristicKernel {
 public:
  HeuristicKernel(const ScoreScheme& scheme, const HeuristicParams& params)
      : scheme_(scheme), params_(params) {}

  const HeuristicParams& params() const noexcept { return params_; }
  const ScoreScheme& scheme() const noexcept { return scheme_; }

  /// Computes cells (row, col_begin .. col_begin+len-1), 1-based matrix
  /// coordinates, of the similarity array.
  ///
  ///  - `prev` holds the previous row over the same columns;
  ///  - `diag_left` is cell (row-1, col_begin-1);
  ///  - `left` is cell (row, col_begin-1) — at a partition border these two
  ///    are the values received from the left neighbour;
  ///  - `out` receives the new row segment (may alias `prev` only if the
  ///    caller copies, so it must NOT alias here);
  ///  - closed candidates stream into `sink`.
  void process_row_segment(Base s_char, std::uint32_t row,
                           std::span<const Base> t_cols, std::uint32_t col_begin,
                           std::span<const CellInfo> prev, const CellInfo& diag_left,
                           const CellInfo& left, std::span<CellInfo> out,
                           CandidateSink& sink) const;

  /// Computes one block (simd/cand_kernel.h contract) row by row with
  /// process_row_segment: the scalar reference of the candidate strip
  /// kernel.  Closed candidates stream into `sink` in row-major order.
  void process_block(const simd::CandBlock& blk, CandidateSink& sink) const;

  /// The kernel's costs and thresholds in the strip kernel's terms.
  simd::CandParams cand_params() const noexcept {
    return simd::CandParams{
        simd::ScoreParams{scheme_.match, scheme_.mismatch, scheme_.gap,
                          scheme_.gap_open},
        params_.open_threshold, params_.close_drop};
  }

  /// Single-cell update, exposed for exhaustive unit testing.
  CellInfo update_cell(Base s_char, Base t_char, std::uint32_t row,
                       std::uint32_t col, const CellInfo& diag, const CellInfo& up,
                       const CellInfo& left, CandidateSink& sink) const;

 private:
  ScoreScheme scheme_;
  HeuristicParams params_;
};

/// Serial phase-1 driver: scans the whole matrix with two rows of CellInfo
/// and returns the finalized candidate queue (sorted by subsequence size,
/// repeats removed).  This is the reference the parallel strategies must
/// reproduce exactly.
std::vector<Candidate> heuristic_scan(const Sequence& s, const Sequence& t,
                                      const ScoreScheme& scheme = {},
                                      const HeuristicParams& params = {});

}  // namespace gdsm
