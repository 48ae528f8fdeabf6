// The band/block compute loop shared by the DSM and the message-passing
// variants of the blocked heuristic strategy.  The only difference between
// the two is HOW a block's top boundary arrives and HOW its bottom boundary
// is published, so those are injected as callables.  Each block runs through
// the dispatched candidate strip kernel (simd/cand_kernel.h) when the active
// backend has one, else through HeuristicKernel::process_block, its scalar
// reference.
#pragma once

#include <span>
#include <vector>

#include "core/partition.h"
#include "simd/dispatch.h"
#include "sw/heuristic_scan.h"
#include "util/sequence.h"

namespace gdsm::core {

/// Computes all blocks of band `b` left to right.
///
/// * `recv_top(k, out)` fills `out` (block_width(k) cells) with the bottom
///   row of band b-1 over block k's columns; never called for band 0.
/// * `publish_bottom(k, bottom)` hands the finished block's bottom row to
///   the next band's owner; never called for the last band (whose bottom is
///   the matrix's final row: still-open candidates are flushed instead).
template <typename RecvTop, typename PublishBottom>
void compute_band(const HeuristicKernel& kernel, const Sequence& s,
                  const Sequence& t, const BlockGrid& grid, std::size_t b,
                  CandidateSink& sink, RecvTop&& recv_top,
                  PublishBottom&& publish_bottom) {
  const std::size_t row_lo = grid.row_offsets[b];  // 0-based
  const std::size_t H = grid.band_height(b);
  const std::size_t K = grid.blocks();
  const bool last_band = (b + 1 == grid.bands());
  const simd::CandParams cp = kernel.cand_params();

  // Right edge of the previous block: [0] is the diagonal input for the
  // first row, [1 + r] the left input for row r.  Column 0 is all zeros.
  std::vector<CellInfo> left_edge(H + 1);
  std::vector<CellInfo> new_edge(H + 1);
  std::vector<CellInfo> top_row;
  std::vector<CellInfo> bottom_row;
  std::vector<simd::CandClose> closes;

  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t col_lo = grid.col_offsets[k];  // 0-based
    const std::size_t W = grid.block_width(k);

    top_row.assign(W, CellInfo{});
    if (b > 0) recv_top(k, std::span<CellInfo>(top_row));
    bottom_row.resize(W);

    const simd::CandBlock blk{s.data() + row_lo,
                              H,
                              t.data() + col_lo,
                              W,
                              static_cast<std::uint32_t>(row_lo + 1),
                              static_cast<std::uint32_t>(col_lo + 1),
                              top_row.data(),
                              left_edge.data(),
                              bottom_row.data(),
                              new_edge.data()};
    // The strip kernel buffers the block's close events and replays them
    // in the scalar loop's row-major order, so the sink sees one sequence
    // either way.
    if (simd::cand_block(blk, cp, &closes)) {
      for (const simd::CandClose& ev : closes) sink.close(ev);
    } else {
      kernel.process_block(blk, sink);
    }
    std::swap(left_edge, new_edge);

    if (!last_band) {
      publish_bottom(k, std::span<const CellInfo>(bottom_row));
    } else {
      // Bottom row of the whole matrix: flush still-open candidates.
      for (const CellInfo& cell : bottom_row) sink.flush_open(cell);
    }
  }
}

}  // namespace gdsm::core
