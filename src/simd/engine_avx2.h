// AVX2 lane engines for the anti-diagonal sweep (diag_kernel_inl.h).
// Include only from a translation unit compiled with -mavx2.
//
// The one non-obvious op is shift_in: AVX2 has no single cross-128-bit-lane
// element shift, so it is built from a permute that moves the low 128-bit
// half into the high position, an alignr that stitches the halves, and an
// insert for the incoming element.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "util/alphabet.h"

namespace gdsm::simd::detail {

struct EngineAvx16 {
  using V = __m256i;
  using Lane = std::int16_t;
  static constexpr int kLanes = 16;
  static constexpr int kSegSteps = 30000;   // keeps step stamps/counters exact
  static constexpr int kMaskBitsPerLane = 2;
  static V zero() { return _mm256_setzero_si256(); }
  static V bcast(int x) { return _mm256_set1_epi16(static_cast<short>(x)); }
  static V loadu(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void storeu(void* p, V v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
  }
  static V load_chars(const Base* p) {
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static V load_bound(const std::int32_t* p) {
    // packs interleaves the 128-bit halves; the permute restores lane order.
    // Values are within the 16-bit routing limits, so no clipping.
    return _mm256_permute4x64_epi64(
        _mm256_packs_epi32(loadu(p), loadu(p + 8)), 0xD8);
  }
  static V add(V a, V b) { return _mm256_adds_epi16(a, b); }  // saturating
  static V sub(V a, V b) { return _mm256_sub_epi16(a, b); }
  static V max(V a, V b) { return _mm256_max_epi16(a, b); }
  static V cmpeq(V a, V b) { return _mm256_cmpeq_epi16(a, b); }
  static V cmpgt(V a, V b) { return _mm256_cmpgt_epi16(a, b); }
  static V blend(V a, V b, V m) { return _mm256_blendv_epi8(a, b, m); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V andnot(V m, V a) { return _mm256_andnot_si256(m, a); }
  static V shift_in(V v, std::int32_t x) {  // lane 0 <- x, lane l <- v[l-1]
    // alignr against [0 : v_lo] leaves lane 0 zeroed, so the incoming value
    // ORs in via a zeroing vmovd — cheaper than a cross-lane insert, and the
    // shift sits on the sweep's serial dependency chain.
    const V lo_to_hi = _mm256_permute2x128_si256(v, v, 0x08);
    const V shifted = _mm256_alignr_epi8(v, lo_to_hi, 14);
    return _mm256_or_si256(
        shifted, _mm256_zextsi128_si256(_mm_cvtsi32_si128(x & 0xFFFF)));
  }
  static int movemask(V m) { return _mm256_movemask_epi8(m); }
};

struct EngineAvx32 {
  using V = __m256i;
  using Lane = std::int32_t;
  static constexpr int kLanes = 8;
  static constexpr int kSegSteps = 1 << 28;
  static constexpr int kMaskBitsPerLane = 4;
  static V zero() { return _mm256_setzero_si256(); }
  static V bcast(int x) { return _mm256_set1_epi32(x); }
  static V loadu(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void storeu(void* p, V v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
  }
  static V load_chars(const Base* p) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static V load_bound(const std::int32_t* p) { return loadu(p); }
  static V add(V a, V b) { return _mm256_add_epi32(a, b); }
  static V sub(V a, V b) { return _mm256_sub_epi32(a, b); }
  static V max(V a, V b) { return _mm256_max_epi32(a, b); }
  static V cmpeq(V a, V b) { return _mm256_cmpeq_epi32(a, b); }
  static V cmpgt(V a, V b) { return _mm256_cmpgt_epi32(a, b); }
  static V blend(V a, V b, V m) { return _mm256_blendv_epi8(a, b, m); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V andnot(V m, V a) { return _mm256_andnot_si256(m, a); }
  static V shift_in(V v, std::int32_t x) {
    const V lo_to_hi = _mm256_permute2x128_si256(v, v, 0x08);
    const V shifted = _mm256_alignr_epi8(v, lo_to_hi, 12);
    return _mm256_or_si256(shifted,
                           _mm256_zextsi128_si256(_mm_cvtsi32_si128(x)));
  }
  static int movemask(V m) { return _mm256_movemask_epi8(m); }
  // Candidate-kernel extras (cand_kernel_inl.h).
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static V min(V a, V b) { return _mm256_min_epi32(a, b); }
  static V lane_index() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }
  /// Lane l <- v[l-1], lane 0 <- v[L-1].
  static V rot(V v) {
    const V idx = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    return _mm256_permutevar8x32_epi32(v, idx);
  }
  /// Lane 0 <- *p (a broadcast load and an immediate blend).
  static V insert0(V v, const std::int32_t* p) {
    return _mm256_blend_epi32(v, _mm256_set1_epi32(*p), 0x01);
  }
  static std::int32_t lane0(V v) {
    return _mm_cvtsi128_si32(_mm256_castsi256_si128(v));
  }
  /// Lane `idx[0]` of v (idx = bcast(i)).
  static std::int32_t extract(V v, V idx) {
    return _mm_cvtsi128_si32(
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, idx)));
  }
};

/// Striped engines (striped_kernel_inl.h contract).  shift1 uses the same
/// permute+alignr trick as shift_in above, moved down to byte granularity:
/// permute2x128(v, v, 0x08) puts the low half in the high position with a
/// zeroed low half, so alignr by 15 (8-bit lanes) or 14 (16-bit) yields the
/// whole vector shifted up one lane with a zero shifted in.
struct StripedAvx8 {
  using V = __m256i;
  using Word = std::uint8_t;
  static constexpr int kLanes = 32;

  static V zero() { return _mm256_setzero_si256(); }
  static V set1(int x) { return _mm256_set1_epi8(static_cast<char>(x)); }
  static V loadu(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void storeu(void* p, V v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
  }
  static V adds(V a, V b) { return _mm256_adds_epu8(a, b); }
  static V subs(V a, V b) { return _mm256_subs_epu8(a, b); }
  static V maxv(V a, V b) { return _mm256_max_epu8(a, b); }
  static V shift1(V v) {
    const V lo_to_hi = _mm256_permute2x128_si256(v, v, 0x08);
    return _mm256_alignr_epi8(v, lo_to_hi, 15);
  }
  static bool any_gt(V a, V b) {
    return !_mm256_testz_si256(_mm256_subs_epu8(a, b),
                               _mm256_subs_epu8(a, b));
  }
  static bool any_ne(V a, V b) {
    return _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)) != -1;
  }
  static int hmax(V v) {
    alignas(32) Word l[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(l), v);
    int best = 0;
    for (int i = 0; i < kLanes; ++i) best = std::max(best, static_cast<int>(l[i]));
    return best;
  }
};

struct StripedAvx16 {
  using V = __m256i;
  using Word = std::uint16_t;
  static constexpr int kLanes = 16;

  static V zero() { return _mm256_setzero_si256(); }
  static V set1(int x) { return _mm256_set1_epi16(static_cast<short>(x)); }
  static V loadu(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void storeu(void* p, V v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
  }
  static V adds(V a, V b) { return _mm256_adds_epu16(a, b); }
  static V subs(V a, V b) { return _mm256_subs_epu16(a, b); }
  static V maxv(V a, V b) { return _mm256_max_epu16(a, b); }
  static V shift1(V v) {
    const V lo_to_hi = _mm256_permute2x128_si256(v, v, 0x08);
    return _mm256_alignr_epi8(v, lo_to_hi, 14);
  }
  static bool any_gt(V a, V b) {
    return !_mm256_testz_si256(_mm256_subs_epu16(a, b),
                               _mm256_subs_epu16(a, b));
  }
  static bool any_ne(V a, V b) {
    return _mm256_movemask_epi8(_mm256_cmpeq_epi16(a, b)) != -1;
  }
  static int hmax(V v) {
    alignas(32) Word l[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(l), v);
    int best = 0;
    for (int i = 0; i < kLanes; ++i) best = std::max(best, static_cast<int>(l[i]));
    return best;
  }
};

}  // namespace gdsm::simd::detail
