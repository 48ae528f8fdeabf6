// AVX2 backend: instantiates the shared anti-diagonal sweeps (score-only and
// candidate-tracking) over the 256-bit engines.  This file is compiled with -mavx2 (see CMakeLists.txt); the
// binary stays runnable on baseline x86-64 because dispatch.cpp only calls
// in here after a CPUID check.
#if defined(__x86_64__) || defined(__i386__)

#include "simd/engine_avx2.h"
#include "simd/cand_kernel_inl.h"
#include "simd/diag_kernel_inl.h"

namespace gdsm::simd::avx2 {

using detail::EngineAvx16;
using detail::EngineAvx32;
using detail::Mode;

BestCell block_best(const DiagBlock& blk, const ScoreParams& sp) {
  BestCell best;
  detail::run_local<EngineAvx16, EngineAvx32, Mode::kBest>(
      blk, sp, 0, &best, nullptr, nullptr);
  return best;
}

void block_count(const DiagBlock& blk, const ScoreParams& sp,
                 std::int32_t threshold, std::uint64_t* count_by_a) {
  detail::run_local<EngineAvx16, EngineAvx32, Mode::kCount>(
      blk, sp, threshold, nullptr, count_by_a, nullptr);
}

void block_hits(const DiagBlock& blk, const ScoreParams& sp,
                std::int32_t threshold, const HitSink& sink) {
  detail::run_local<EngineAvx16, EngineAvx32, Mode::kHits>(
      blk, sp, threshold, nullptr, nullptr, &sink);
}

void nw_last_row(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                 std::size_t b_len, const ScoreParams& sp,
                 std::int32_t* out_by_a) {
  detail::run_nw<EngineAvx32>(a_seq, a_len, b_seq, b_len, sp, out_by_a);
}

void nw_last_row_affine(const Base* a_seq, std::size_t a_len, const Base* b_seq,
                        std::size_t b_len, const ScoreParams& sp,
                        std::int32_t tb_open, std::int32_t* out_h,
                        std::int32_t* out_e) {
  detail::run_nw_affine<EngineAvx32>(a_seq, a_len, b_seq, b_len, sp, tb_open,
                                     out_h, out_e);
}

void cand_block(const CandBlock& blk, const CandParams& cp,
                std::vector<CandClose>* closes) {
  if (cp.score.gap_open != 0) {
    detail::cand_sweep<EngineAvx32, true>(blk, cp, closes);
  } else {
    detail::cand_sweep<EngineAvx32, false>(blk, cp, closes);
  }
}

}  // namespace gdsm::simd::avx2

// Striped-AVX2: the Farrar sweep over the 256-bit unsigned saturating
// engines; ineligible blocks delegate to the anti-diagonal AVX2 backend.
#include "simd/striped_kernel_inl.h"

namespace gdsm::simd::striped_avx2 {

BestCell block_best(const DiagBlock& blk, const ScoreParams& sp) {
  return detail::striped_block_best_impl<detail::StripedAvx8,
                                         detail::StripedAvx16>(
      blk, sp, &avx2::block_best);
}

}  // namespace gdsm::simd::striped_avx2

#endif  // x86
