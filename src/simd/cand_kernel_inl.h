// Anti-diagonal strip sweep of the candidate-tracking recurrence
// (cand_kernel.h), templated over a 32-bit lane engine.
//
// Included only by the backend translation unit compiled with the matching
// ISA flags (kernel_avx2.cpp, EngineAvx32).
//
// Lanes are L = E::kLanes consecutive rows of the block; at step c lane l
// computes cell (r0 + l, c - l), the strip scheme of diag_kernel_inl.h with
// rows on the lanes.  Every CandCell field is its own vector of 32-bit lanes
// (struct of arrays): score, max, min, E, F, begin_i/j, max_i/j, weight and
// the open flag as a 0/-1 mask.  Per step:
//
//   left  = the lane's own previous result (the ramp blends the block's left
//           edge into lane c+1 after step c, so a lane starts from its edge)
//   up    = the previous result rotated one lane down, lane 0 fed from the
//           row above the strip (the top-row buffer, one broadcast load)
//   diag  = the previous step's `up`, which is exactly cell (r-1, j-1)
//
// The top-row buffer holds the row above the strip, one 64-byte record of
// fields per column ([0] = cell (r0-1, -1), [1 + j] = cell (r0-1, j)).
// Lane hs-1 (the strip's last row) overwrites it in place, always behind
// lane 0's read of the same record and ahead of any later read, so the
// buffer becomes the next strip's top row and, after the last strip, the
// block's bottom edge.  A full strip takes that lane off the rotate that
// builds the next step's `up` (lane 0 of rot(o) is lane L-1); a partial
// strip extracts it.  The right edge is captured lane by lane during the
// strip's final steps.
//
// Out-of-range lanes (not yet started, finished, or past a partial strip's
// height) compute garbage that no in-range lane ever reads: every read of a
// neighbour lane happens at a step where that neighbour is in range or has
// just been blended from the left edge.  Masks are applied only where
// results leave the registers: close events and the edge captures.
//
// Close events are rare, so the sweep tests one movemask per step and only
// then checks lane ranges and copies fields out.  Events of one strip arrive
// in anti-diagonal order; a final sort by (row, column) restores the
// row-major order of the scalar row-segment loop, which is the order
// CandidateSink must see (its queue is truncated at publish time).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/cand_kernel.h"

namespace gdsm::simd::detail {

// Field order of the struct-of-arrays buffers.
enum CandField : int {
  kFH, kFMax, kFMin, kFE, kFF, kFBi, kFBj, kFMi, kFMj, kFW, kFFlag, kCandFields
};

// Top-row buffer records: one cell's fields contiguous (one base pointer per
// step), padded to a 64-byte record.
inline constexpr std::size_t kCandRec = 16;

// A cell's fields to/from base[F * fstride]: fstride 1 for a top-row record,
// kLanes for a lane of the per-field lane arrays.
inline void put_cell(std::int32_t* base, std::size_t fstride,
                     const CandCell& c) {
  base[kFH * fstride] = c.score;
  base[kFMax * fstride] = c.max_score;
  base[kFMin * fstride] = c.min_score;
  base[kFE * fstride] = c.e;
  base[kFF * fstride] = c.f;
  base[kFBi * fstride] = static_cast<std::int32_t>(c.begin_i);
  base[kFBj * fstride] = static_cast<std::int32_t>(c.begin_j);
  base[kFMi * fstride] = static_cast<std::int32_t>(c.max_i);
  base[kFMj * fstride] = static_cast<std::int32_t>(c.max_j);
  base[kFW * fstride] = static_cast<std::int32_t>(c.weight);
  base[kFFlag * fstride] = c.flag ? -1 : 0;
}

inline CandCell get_cell(const std::int32_t* base, std::size_t fstride) {
  CandCell c;
  c.score = base[kFH * fstride];
  c.max_score = base[kFMax * fstride];
  c.min_score = base[kFMin * fstride];
  c.e = base[kFE * fstride];
  c.f = base[kFF * fstride];
  c.begin_i = static_cast<std::uint32_t>(base[kFBi * fstride]);
  c.begin_j = static_cast<std::uint32_t>(base[kFBj * fstride]);
  c.max_i = static_cast<std::uint32_t>(base[kFMi * fstride]);
  c.max_j = static_cast<std::uint32_t>(base[kFMj * fstride]);
  c.weight = static_cast<std::uint32_t>(base[kFW * fstride]);
  c.flag = base[kFFlag * fstride] != 0 ? 1 : 0;
  return c;
}

struct CandScratch {
  std::vector<std::int32_t> top;  // kCandRec-int records, one per column
  std::vector<Base> t_rev;        // reversed column characters, padded
};

inline CandScratch& cand_scratch() {
  thread_local CandScratch s;
  return s;
}

template <class E>
struct CandLanes {
  typename E::V h, mx, mn, e, f, bi, bj, mi, mj, w, fl;
};

template <class E>
CandLanes<E> load_lanes(const std::int32_t* soa) {
  constexpr int L = E::kLanes;
  return {E::loadu(soa + kFH * L),  E::loadu(soa + kFMax * L),
          E::loadu(soa + kFMin * L), E::loadu(soa + kFE * L),
          E::loadu(soa + kFF * L),  E::loadu(soa + kFBi * L),
          E::loadu(soa + kFBj * L), E::loadu(soa + kFMi * L),
          E::loadu(soa + kFMj * L), E::loadu(soa + kFW * L),
          E::loadu(soa + kFFlag * L)};
}

template <class E>
void store_lanes(std::int32_t* soa, const CandLanes<E>& v) {
  constexpr int L = E::kLanes;
  E::storeu(soa + kFH * L, v.h);
  E::storeu(soa + kFMax * L, v.mx);
  E::storeu(soa + kFMin * L, v.mn);
  E::storeu(soa + kFE * L, v.e);
  E::storeu(soa + kFF * L, v.f);
  E::storeu(soa + kFBi * L, v.bi);
  E::storeu(soa + kFBj * L, v.bj);
  E::storeu(soa + kFMi * L, v.mi);
  E::storeu(soa + kFMj * L, v.mj);
  E::storeu(soa + kFW * L, v.w);
  E::storeu(soa + kFFlag * L, v.fl);
}

/// Lane `lane` of every field of `v` into a top-row record.
template <class E, bool kAffine>
void extract_lane(std::int32_t* rec, const CandLanes<E>& v, typename E::V idx) {
  rec[kFH] = E::extract(v.h, idx);
  rec[kFMax] = E::extract(v.mx, idx);
  rec[kFMin] = E::extract(v.mn, idx);
  if constexpr (kAffine) {
    rec[kFE] = E::extract(v.e, idx);
    rec[kFF] = E::extract(v.f, idx);
  }
  rec[kFBi] = E::extract(v.bi, idx);
  rec[kFBj] = E::extract(v.bj, idx);
  rec[kFMi] = E::extract(v.mi, idx);
  rec[kFMj] = E::extract(v.mj, idx);
  rec[kFW] = E::extract(v.w, idx);
  rec[kFFlag] = E::extract(v.fl, idx);
}

template <class E, bool kAffine>
class CandSweep {
  using V = typename E::V;
  static constexpr int L = E::kLanes;
  static_assert(sizeof(typename E::Lane) == 4, "candidate lanes are 32-bit");

 public:
  CandSweep(const CandBlock& blk, const CandParams& cp,
            std::vector<CandClose>* closes)
      : blk_(blk), closes_(closes), W_(blk.cols),
        vMatch_(E::bcast(cp.score.match)),
        vMis_(E::bcast(cp.score.mismatch)),
        vGap_(E::bcast(cp.score.gap)),
        vOpenGap_(E::bcast(cp.score.gap_open + cp.score.gap)),
        vDrop_(E::bcast(cp.close_drop)),
        vOpenM1_(E::bcast(cp.open_threshold - 1)),
        vAll_(E::bcast(-1)) {}

  void run() {
    const std::size_t H = blk_.rows;
    const std::size_t W = W_;
    assert(H >= 1 && W >= 1);
    closes_->clear();

    // Top-row buffer: record [0] the corner, [1..W] the row, then L pad
    // records that lane 0 reads (into garbage lanes) during a strip's tail;
    // L more records before [0] absorb a full strip's early write-backs.
    CandScratch& scr = cand_scratch();
    scr.top.assign((L + W + 1 + L) * kCandRec, 0);
    T_ = scr.top.data() + L * kCandRec;
    put_cell(T_, 1, blk_.left[0]);
    for (std::size_t j = 0; j < W; ++j)
      put_cell(T_ + (1 + j) * kCandRec, 1, blk_.top[j]);
    // t_rev[L + W-1-j] = t[j]: an L-char load at (tr - c) gives lane l the
    // character t[c - l].
    scr.t_rev.assign(W + 2 * L, Base{0xFF});
    for (std::size_t j = 0; j < W; ++j)
      scr.t_rev[L + W - 1 - j] = blk_.t_seq[j];
    tr_ = scr.t_rev.data() + L + (W - 1);

    blk_.right[0] = blk_.top[W - 1];
    for (std::size_t r0 = 0; r0 < H; r0 += L) {
      const std::size_t hs = std::min<std::size_t>(L, H - r0);
      if (hs == static_cast<std::size_t>(L)) {
        strip<true>(r0, hs);
      } else {
        strip<false>(r0, hs);
      }
      // The next strip's diagonal corner: cell (r0+L-1, -1).
      if (r0 + L < H) put_cell(T_, 1, blk_.left[r0 + L]);
    }

    for (std::size_t j = 0; j < W; ++j) {
      CandCell cell = get_cell(T_ + (1 + j) * kCandRec, 1);
      if constexpr (!kAffine) cell.e = cell.f = kNegInf;
      blk_.bottom[j] = cell;
    }
    std::sort(closes_->begin(), closes_->end(),
              [](const CandClose& x, const CandClose& y) {
                return x.row != y.row ? x.row < y.row : x.col < y.col;
              });
  }

 private:
  // One strip of hs <= L rows.  kFull (hs == L) takes the last row off the
  // rotate that builds the next step's `up`: lane 0 of rot(o) is lane L-1.
  template <bool kFull>
  void strip(std::size_t r0, std::size_t hs) {
    const std::size_t W = W_;
    const V vOne = E::bcast(1);
    const V vNegInf = E::bcast(kNegInf);
    const V vLane = E::lane_index();
    alignas(64) std::int32_t tmp[kCandFields * L];

    Base s_chars[2 * L];
    std::fill(s_chars, s_chars + 2 * L, Base{0xFF});
    std::copy(blk_.s_seq + r0, blk_.s_seq + r0 + hs, s_chars);
    const V vS = E::load_chars(s_chars);
    const V vSn = E::cmpeq(vS, E::bcast(kBaseN));  // an N never matches
    const V vRow =
        E::add(E::bcast(static_cast<std::int32_t>(blk_.row0 + r0)), vLane);
    V vCol = E::sub(E::bcast(static_cast<std::int32_t>(blk_.col0)), vLane);

    for (int l = 0; l < L; ++l) {
      const auto ul = static_cast<std::size_t>(l);
      put_cell(tmp + l, L, ul < hs ? blk_.left[1 + r0 + ul] : CandCell{});
    }
    const CandLanes<E> le = load_lanes<E>(tmp);
    CandLanes<E> o = le;  // lane 0's left input for step 0
    CandLanes<E> ua;      // step 0's diagonal input: lane 0 = cell (r0-1, -1)
    ua.h = E::bcast(T_[kFH]);
    ua.mx = E::bcast(T_[kFMax]);
    ua.mn = E::bcast(T_[kFMin]);
    ua.e = ua.f = vNegInf;  // never read
    ua.bi = E::bcast(T_[kFBi]);
    ua.bj = E::bcast(T_[kFBj]);
    ua.mi = E::bcast(T_[kFMi]);
    ua.mj = E::bcast(T_[kFMj]);
    ua.w = E::bcast(T_[kFW]);
    ua.fl = E::bcast(T_[kFFlag]);
    CandLanes<E> ub;
    const V vLast = E::bcast(static_cast<std::int32_t>(hs - 1));

    // One step: `diag` is the previous step's `up` (cell (r-1, j-1)), `u`
    // receives this step's.  The loop below alternates the two records
    // instead of copying one into the other.
    const auto step = [&](std::size_t c, const CandLanes<E>& diag,
                          CandLanes<E>& u) __attribute__((always_inline)) {
      // up = rot(o) with lane 0 from the row above (record 1 + c).  With a
      // full strip, lane 0 of rot(o) is the last row at column c - L, which
      // goes back into the buffer L records behind this read (into the
      // padding, or the spent corner record, while c < L).
      const std::int32_t* rin = T_ + (1 + c) * kCandRec;
      std::int32_t* rout = T_ + (1 + c) * kCandRec - L * kCandRec;
      const auto up = [&](V prev, int field) __attribute__((always_inline)) {
        const V r = E::rot(prev);
        if constexpr (kFull) rout[field] = E::lane0(r);
        return E::insert0(r, rin + field);
      };
      u.h = up(o.h, kFH);
      u.mx = up(o.mx, kFMax);
      u.mn = up(o.mn, kFMin);
      u.e = vNegInf;  // never read
      if constexpr (kAffine) {
        if constexpr (kFull) rout[kFE] = E::lane0(E::rot(o.e));
        u.f = up(o.f, kFF);
      } else {
        u.f = vNegInf;
      }
      u.bi = up(o.bi, kFBi);
      u.bj = up(o.bj, kFBj);
      u.mi = up(o.mi, kFMi);
      u.mj = up(o.mj, kFMj);
      u.w = up(o.w, kFW);
      u.fl = up(o.fl, kFFlag);

      o = cell_step(o, u, diag, E::load_chars(tr_ - c), vS, vSn, vRow, vCol,
                    hs, r0, c, tmp);
      vCol = E::add(vCol, vOne);

      // Ramp: lane c+1 starts next step from its left-edge cell.
      if (c + 1 < hs) {
        const V m = E::cmpeq(vLane, E::bcast(static_cast<std::int32_t>(c + 1)));
        o.h = E::blend(o.h, le.h, m);
        o.mx = E::blend(o.mx, le.mx, m);
        o.mn = E::blend(o.mn, le.mn, m);
        o.e = E::blend(o.e, le.e, m);
        o.f = E::blend(o.f, le.f, m);
        o.bi = E::blend(o.bi, le.bi, m);
        o.bj = E::blend(o.bj, le.bj, m);
        o.mi = E::blend(o.mi, le.mi, m);
        o.mj = E::blend(o.mj, le.mj, m);
        o.w = E::blend(o.w, le.w, m);
        o.fl = E::blend(o.fl, le.fl, m);
      }
      // A partial strip's last row, column c+1-hs, into the buffer (lane
      // hs-1 is never a ramp lane by then).
      if (!kFull && c + 1 >= hs) {
        extract_lane<E, kAffine>(T_ + (1 + (c + 1 - hs)) * kCandRec, o, vLast);
      }
      // The block's last column: lane c+1-W is there.
      if (c + 1 >= W && c + 1 - W < hs) {
        const std::size_t l = c + 1 - W;
        store_lanes<E>(tmp, o);
        CandCell cell = get_cell(tmp + l, L);
        if constexpr (!kAffine) cell.e = cell.f = kNegInf;
        blk_.right[1 + r0 + l] = cell;
      }
    };

    const std::size_t steps = W + hs - 1;
    std::size_t c = 0;
    for (; c + 1 < steps; c += 2) {
      step(c, ua, ub);
      step(c + 1, ub, ua);
    }
    if (c < steps) step(c, ua, ub);
    // A full strip's last row at the last column is still in the registers.
    if (kFull) {
      extract_lane<E, kAffine>(T_ + W * kCandRec, o, vLast);
    }
  }

  // One anti-diagonal of update_cell (sw/heuristic_scan.cpp), lane-parallel.
  // Forced inline: the lane records must stay in registers across the call.
  [[gnu::always_inline]] CandLanes<E> cell_step(
      const CandLanes<E>& o, const CandLanes<E>& u, const CandLanes<E>& d,
      V vT, V vS, V vSn, V vRow, V vCol, std::size_t hs, std::size_t r0,
      std::size_t c, std::int32_t* tmp) {
    const V vZero = E::zero();
    const V vNegInf = E::bcast(kNegInf);
    const V vSub = E::blend(vMis_, vMatch_, E::andnot(vSn, E::cmpeq(vS, vT)));
    const V fd = E::add(d.h, vSub);
    V fu, fl;
    if constexpr (kAffine) {
      fu = E::max(E::add(u.h, vOpenGap_), E::add(u.f, vGap_));
      fl = E::max(E::add(o.h, vOpenGap_), E::add(o.e, vGap_));
    } else {
      fu = E::add(u.h, vGap_);
      fl = E::add(o.h, vGap_);
    }
    const V best = E::max(E::max(fd, fu), E::max(fl, vZero));
    const V zero = E::cmpeq(best, vZero);

    // Origin: left if it reaches best; up if it does and outweighs left;
    // diag if it does and outweighs the choice so far (strict, so remaining
    // ties keep left > up > diag).  The three weight comparisons do not
    // wait for each other, which keeps the step's dependency chain short.
    const V take_l = E::cmpeq(fl, best);
    const V up_beats = E::or_(E::andnot(take_l, vAll_), E::cmpgt(u.w, o.w));
    const V take_u = E::and_(E::cmpeq(fu, best), up_beats);
    const V diag_beats = E::blend(
        E::or_(E::andnot(take_l, vAll_), E::cmpgt(d.w, o.w)),
        E::cmpgt(d.w, u.w), take_u);
    const V take_d = E::and_(E::cmpeq(fd, best), diag_beats);
    const V sel_u = E::andnot(take_d, take_u);
    const auto pick = [&](V left, V up, V diag) {
      return E::blend(E::blend(left, up, sel_u), diag, take_d);
    };

    CandLanes<E> n;
    n.h = best;
    n.mx = pick(o.mx, u.mx, d.mx);
    n.mn = pick(o.mn, u.mn, d.mn);
    n.e = kAffine ? fl : vNegInf;
    n.f = kAffine ? fu : vNegInf;
    n.bi = pick(o.bi, u.bi, d.bi);
    n.bj = pick(o.bj, u.bj, d.bj);
    n.mi = pick(o.mi, u.mi, d.mi);
    n.mj = pick(o.mj, u.mj, d.mj);
    // +2 for a diagonal step, +1 for a gap step.
    n.w = E::sub(E::add(pick(o.w, u.w, d.w), E::bcast(1)), take_d);
    n.fl = pick(o.fl, u.fl, d.fl);

    // Running extrema: a new maximum, or a new minimum while no candidate
    // is open, restarts the maximum at this cell.
    const V below = E::cmpgt(n.mn, best);
    const V restart = E::or_(E::cmpgt(best, n.mx), E::andnot(n.fl, below));
    n.mn = E::min(n.mn, best);
    n.mx = E::blend(n.mx, best, restart);
    n.mi = E::blend(n.mi, vRow, restart);
    n.mj = E::blend(n.mj, vCol, restart);

    // Close: open and fallen close_drop below the maximum (never on a
    // floored cell, which restarts empty).
    const V close = E::andnot(
        zero, E::andnot(E::cmpgt(best, E::sub(n.mx, vDrop_)), n.fl));
    const unsigned mm = static_cast<unsigned>(E::movemask(close));
    if (mm != 0) {
      record_closes(mm, n.mx, n.bi, n.bj, n.mi, n.mj, hs, r0, c, tmp);
      n.fl = E::andnot(close, n.fl);
      n.mx = E::blend(n.mx, best, close);
      n.mn = E::blend(n.mn, best, close);
      n.mi = E::blend(n.mi, vRow, close);
      n.mj = E::blend(n.mj, vCol, close);
    }

    // Open: risen open_threshold above the minimum.
    const V open = E::andnot(n.fl, E::cmpgt(n.mx, E::add(n.mn, vOpenM1_)));
    n.fl = E::or_(n.fl, open);
    n.bi = E::blend(n.bi, vRow, open);
    n.bj = E::blend(n.bj, vCol, open);

    // Eq. (1) floor: the cell restarts as an empty record.
    n.mx = E::andnot(zero, n.mx);
    n.mn = E::andnot(zero, n.mn);
    if constexpr (kAffine) {
      n.e = E::blend(n.e, vNegInf, zero);
      n.f = E::blend(n.f, vNegInf, zero);
    }
    n.bi = E::andnot(zero, n.bi);
    n.bj = E::andnot(zero, n.bj);
    n.mi = E::andnot(zero, n.mi);
    n.mj = E::andnot(zero, n.mj);
    n.w = E::andnot(zero, n.w);
    n.fl = E::andnot(zero, n.fl);
    return n;
  }

  // The rare slow path, kept out of the sweep loop.
  // Takes the fields by value so the sweep's records never need an address.
  [[gnu::noinline]] void record_closes(unsigned mm, V mx, V bi, V bj, V mi,
                                       V mj, std::size_t hs, std::size_t r0,
                                       std::size_t c, std::int32_t* tmp) {
    E::storeu(tmp + kFMax * L, mx);
    E::storeu(tmp + kFBi * L, bi);
    E::storeu(tmp + kFBj * L, bj);
    E::storeu(tmp + kFMi * L, mi);
    E::storeu(tmp + kFMj * L, mj);
    for (int l = 0; l < L; ++l) {
      if ((mm & (1u << (l * E::kMaskBitsPerLane))) == 0) continue;
      const auto ul = static_cast<std::size_t>(l);
      if (ul >= hs || c < ul || c - ul >= W_) continue;  // out of range
      closes_->push_back(CandClose{
          static_cast<std::uint32_t>(blk_.row0 + r0 + ul),
          static_cast<std::uint32_t>(blk_.col0 + (c - ul)),
          tmp[kFMax * L + l],
          static_cast<std::uint32_t>(tmp[kFBi * L + l]),
          static_cast<std::uint32_t>(tmp[kFBj * L + l]),
          static_cast<std::uint32_t>(tmp[kFMi * L + l]),
          static_cast<std::uint32_t>(tmp[kFMj * L + l])});
    }
  }

  const CandBlock& blk_;
  std::vector<CandClose>* closes_;
  std::size_t W_;
  std::int32_t* T_ = nullptr;
  const Base* tr_ = nullptr;
  V vMatch_, vMis_, vGap_, vOpenGap_, vDrop_, vOpenM1_, vAll_;
};

template <class E, bool kAffine>
void cand_sweep(const CandBlock& blk, const CandParams& cp,
                std::vector<CandClose>* closes) {
  CandSweep<E, kAffine>(blk, cp, closes).run();
}

}  // namespace gdsm::simd::detail
