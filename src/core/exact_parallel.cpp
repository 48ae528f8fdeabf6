#include "core/exact_parallel.h"

#include <cstring>
#include <utility>
#include <vector>

#include "mp/comm.h"
#include "simd/dispatch.h"
#include "sw/full_matrix.h"
#include "sw/hirschberg.h"

namespace gdsm::core {
namespace {

// First-of-maximum combiner in the serial scan's orientation, regardless of
// block scan order: sw_best_score_linear puts the longer sequence on its
// sweep dimension, so its ties break row-major, (i, j), when n <= m and
// column-major, (j, i), when n > m.
void consider(BestLocal& best, int score, std::size_t i, std::size_t j,
              bool col_major) {
  const std::size_t major = col_major ? j : i;
  const std::size_t minor = col_major ? i : j;
  const std::size_t best_major = col_major ? best.end_j : best.end_i;
  const std::size_t best_minor = col_major ? best.end_i : best.end_j;
  if (score > best.score ||
      (score == best.score && score > 0 &&
       (major < best_major || (major == best_major && minor < best_minor)))) {
    best = BestLocal{score, i, j};
  }
}

int boundary_tag(std::size_t band, std::size_t blocks, std::size_t k) {
  return static_cast<int>(band * blocks + k);
}

}  // namespace

ExactParallelResult exact_align_parallel(const Sequence& s, const Sequence& t,
                                         const ExactParallelConfig& cfg) {
  const int P = cfg.nprocs;
  const std::size_t m = s.size();
  const std::size_t n = t.size();

  ExactParallelResult result;
  if (m == 0 || n == 0) return result;

  const BlockGrid grid =
      (cfg.bands && cfg.blocks)
          ? make_grid(m, n, cfg.bands, cfg.blocks)
          : grid_from_multiplier(m, n, P, cfg.mult_w, cfg.mult_h);
  const std::size_t B = grid.bands();
  const std::size_t K = grid.blocks();

  mp::World world(P, cfg.faults);
  BestLocal global_best;
  const bool affine = cfg.scheme.affine();
  const bool col_major = n > m;  // the serial scan's orientation
  const simd::ScoreParams kernel_params{cfg.scheme.match, cfg.scheme.mismatch,
                                        cfg.scheme.gap, cfg.scheme.gap_open};

  world.run([&](mp::Comm& comm) {
    const int p = comm.rank();
    BestLocal local;

    std::vector<std::int32_t> top_row, bottom_row;
    std::vector<std::int32_t> top_e, bottom_e;  // affine E companions
    std::vector<std::int32_t> send_buf;
    for (std::size_t b = static_cast<std::size_t>(p); b < B;
         b += static_cast<std::size_t>(P)) {
      const std::size_t row_lo = grid.row_offsets[b];
      const std::size_t H = grid.band_height(b);
      const int prev_rank =
          b > 0 ? static_cast<int>((b - 1) % static_cast<std::size_t>(P)) : 0;
      const int next_rank =
          static_cast<int>((b + 1) % static_cast<std::size_t>(P));

      // Right edge of the previous block: [0] = diag for the first row,
      // [r] = left input for row r.  Under the affine model a companion
      // carries the Gotoh F state of that edge (horizontal runs continuing
      // into the next block); boundary messages between bands carry [H | E]
      // concatenated, one message per block as before, so fault plans hit
      // the same message sequence in both gap models.
      std::vector<std::int32_t> left_edge(H + 1, 0);
      std::vector<std::int32_t> left_f(affine ? H : 0, simd::kNegInf);

      for (std::size_t k = 0; k < K; ++k) {
        const std::size_t col_lo = grid.col_offsets[k];
        const std::size_t W = grid.block_width(k);

        top_row.assign(W, 0);
        if (affine) top_e.assign(W, simd::kNegInf);
        if (b > 0) {
          if (affine) {
            const auto both = comm.recv_vector<std::int32_t>(
                prev_rank, boundary_tag(b - 1, K, k));
            top_row.assign(both.begin(), both.begin() + static_cast<std::ptrdiff_t>(W));
            top_e.assign(both.begin() + static_cast<std::ptrdiff_t>(W), both.end());
          } else {
            top_row = comm.recv_vector<std::int32_t>(prev_rank,
                                                     boundary_tag(b - 1, K, k));
          }
        }
        bottom_row.resize(W);
        if (affine) bottom_e.resize(W);
        std::vector<std::int32_t> new_edge(H + 1, 0);
        std::vector<std::int32_t> new_edge_f(affine ? H : 0, simd::kNegInf);
        new_edge[0] = top_row.back();

        // One dispatched kernel call per block.  The kernel breaks ties by
        // its (b, a) order, so the sweep dimension `b` takes the serial
        // scan's major axis: rows when n <= m, columns when n > m.  Each
        // gap state follows the characters it consumes: the horizontal
        // run (left_f) pairs with the column edges, the vertical run
        // (top_e) with the row edges.
        simd::DiagBlock blk;
        blk.corner = left_edge[0];
        blk.a_seq = t.data() + col_lo;
        blk.a_len = W;
        blk.b_seq = s.data() + row_lo;
        blk.b_len = H;
        blk.bound_a = top_row.data();
        blk.bound_b = left_edge.data() + 1;
        blk.out_last_b = bottom_row.data();
        blk.out_last_a = new_edge.data() + 1;
        if (affine) {
          blk.bound_e = top_e.data();
          blk.bound_f = left_f.data();
          blk.out_last_b_e = bottom_e.data();
          blk.out_last_a_f = new_edge_f.data();
        }
        if (col_major) {
          std::swap(blk.a_seq, blk.b_seq);
          std::swap(blk.a_len, blk.b_len);
          std::swap(blk.bound_a, blk.bound_b);
          std::swap(blk.out_last_a, blk.out_last_b);
          std::swap(blk.bound_e, blk.bound_f);
          std::swap(blk.out_last_b_e, blk.out_last_a_f);
        }
        const simd::BestCell bc = simd::block_best(blk, kernel_params);
        if (bc.score > 0) {
          const std::size_t r = col_major ? bc.a : bc.b;
          const std::size_t c = col_major ? bc.b : bc.a;
          consider(local, bc.score, row_lo + r + 1, col_lo + c + 1, col_major);
        }
        left_edge = std::move(new_edge);
        if (affine) left_f = std::move(new_edge_f);

        if (b + 1 < B) {
          if (affine) {
            send_buf.assign(bottom_row.begin(), bottom_row.end());
            send_buf.insert(send_buf.end(), bottom_e.begin(), bottom_e.end());
            comm.send_span(next_rank, boundary_tag(b, K, k), send_buf.data(),
                           send_buf.size());
          } else {
            comm.send_span(next_rank, boundary_tag(b, K, k), bottom_row.data(),
                           bottom_row.size());
          }
        }
      }
    }

    // Reduce the per-rank bests to rank 0 with the same tie-break.
    struct WireBest {
      std::int64_t score;
      std::uint64_t i, j;
    };
    const WireBest mine{local.score, local.end_i, local.end_j};
    const auto gathered = comm.gather(0, &mine, sizeof mine);
    if (p == 0) {
      BestLocal combined;
      for (const auto& bytes : gathered) {
        WireBest wb;
        std::memcpy(&wb, bytes.data(), sizeof wb);
        consider(combined, static_cast<int>(wb.score), wb.i, wb.j, col_major);
      }
      global_best = combined;
    }
    comm.barrier();
  });

  result.best = global_best;
  result.traffic = world.total_counters();
  result.faults = world.fault_counters();
  if (global_best.score > 0) {
    const StartCoords start =
        affine ? find_alignment_start_affine(s, t, to_affine(cfg.scheme),
                                             global_best.end_i,
                                             global_best.end_j,
                                             global_best.score)
               : find_alignment_start(s, t, cfg.scheme, global_best.end_i,
                                      global_best.end_j, global_best.score);
    const Sequence sub_s = s.slice(start.i - 1, global_best.end_i);
    const Sequence sub_t = t.slice(start.j - 1, global_best.end_j);
    Alignment al;
    if (affine) {
      al = cfg.use_hirschberg
               ? hirschberg_affine(sub_s, sub_t, to_affine(cfg.scheme))
               : needleman_wunsch_affine(sub_s, sub_t, to_affine(cfg.scheme));
    } else {
      al = cfg.use_hirschberg ? hirschberg(sub_s, sub_t, cfg.scheme)
                              : needleman_wunsch(sub_s, sub_t, cfg.scheme);
    }
    al.s_begin = start.i - 1;
    al.t_begin = start.j - 1;
    result.rebuilt = RebuildResult{std::move(al), start.stats};
  }
  return result;
}

}  // namespace gdsm::core
