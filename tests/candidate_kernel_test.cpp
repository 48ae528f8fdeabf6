// Differential suite for the candidate-tracking strip kernel
// (simd/cand_kernel.h): the AVX2 anti-diagonal sweep is held to the scalar
// row-segment reference (HeuristicKernel::process_block) block by block —
// both output edges and the raw close-event sequence, not only the finalized
// queue — then through compute_band over whole matrices, and finally through
// full blocked / blocked_mp runs against the serial heuristic_scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/band_compute.h"
#include "core/blocked.h"
#include "core/blocked_mp.h"
#include "simd/dispatch.h"
#include "sw/heuristic_scan.h"
#include "testing/oracle.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm {
namespace {

bool have_strip_kernel() {
#if GDSM_SIMD_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Restores the dispatch choice on scope exit.
class BackendPin {
 public:
  explicit BackendPin(simd::Backend b) : saved_(simd::active_backend()) {
    simd::force_backend(b);
  }
  ~BackendPin() { simd::force_backend(saved_); }
  BackendPin(const BackendPin&) = delete;
  BackendPin& operator=(const BackendPin&) = delete;

 private:
  simd::Backend saved_;
};

Sequence random_bases(std::size_t len, Rng& rng, double n_rate) {
  std::basic_string<Base> b(len, Base{});
  for (Base& x : b) {
    x = rng.chance(n_rate) ? kBaseN : static_cast<Base>(rng.below(4));
  }
  return Sequence("r", std::move(b));
}

ScoreScheme random_scheme(Rng& rng) {
  ScoreScheme sc;
  sc.match = 1 + static_cast<int>(rng.below(3));
  sc.mismatch = -1 - static_cast<int>(rng.below(3));
  sc.gap = -1 - static_cast<int>(rng.below(3));
  sc.gap_open = rng.chance(0.5) ? -static_cast<int>(rng.below(5)) : 0;
  return sc;
}

HeuristicParams random_params(Rng& rng) {
  HeuristicParams p;
  p.open_threshold = 1 + static_cast<int>(rng.below(10));
  p.close_drop = 1 + static_cast<int>(rng.below(6));
  p.min_report_score = static_cast<int>(rng.below(12));
  return p;
}

/// An arbitrary (not necessarily reachable) boundary record: both
/// implementations must agree on any input state, not only on the ones a
/// real upstream block produces.
CellInfo random_cell(Rng& rng, bool affine) {
  CellInfo c;
  if (rng.chance(0.3)) return c;
  c.score = static_cast<std::int32_t>(rng.below(40));
  c.max_score = c.score + static_cast<std::int32_t>(rng.below(12));
  c.min_score = c.score - static_cast<std::int32_t>(rng.below(12));
  if (affine) {
    c.e = rng.chance(0.3) ? kCellNegInf
                          : c.score - static_cast<std::int32_t>(rng.below(8));
    c.f = rng.chance(0.3) ? kCellNegInf
                          : c.score - static_cast<std::int32_t>(rng.below(8));
  }
  c.begin_i = static_cast<std::uint32_t>(rng.below(5000));
  c.begin_j = static_cast<std::uint32_t>(rng.below(5000));
  c.max_i = static_cast<std::uint32_t>(rng.below(5000));
  c.max_j = static_cast<std::uint32_t>(rng.below(5000));
  c.weight = static_cast<std::uint32_t>(rng.below(1u << 20));
  c.flag = rng.chance(0.4) ? 1 : 0;
  return c;
}

struct BlockOut {
  std::vector<CellInfo> bottom;
  std::vector<CellInfo> right;
};

#if GDSM_SIMD_AVX2
TEST(CandKernel, StripMatchesScalarBlockOnEveryShape) {
  if (!have_strip_kernel()) GTEST_SKIP() << "no AVX2 on this CPU";
  Rng rng(0xC0DE);
  std::size_t blocks = 0, events = 0;
  for (std::size_t H = 1; H <= 17; ++H) {
    for (const std::size_t W :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{16}, std::size_t{31},
          std::size_t{64}, std::size_t{127}, std::size_t{250},
          static_cast<std::size_t>(1 + rng.below(600)), std::size_t{600}}) {
      for (int rep = 0; rep < 2; ++rep) {
        const ScoreScheme scheme = random_scheme(rng);
        const HeuristicParams params = random_params(rng);
        const HeuristicKernel kernel(scheme, params);
        const double n_rate = rep == 0 ? 0.0 : 0.1;
        // Homologous rows and columns so candidates open and close.
        const Sequence base = random_bases(H + W, rng, n_rate);
        const Sequence s = base.slice(0, H);
        const Sequence mutated = mutate(base, 0.1, 0.02, rng);
        if (mutated.size() < W) continue;
        const Sequence t = mutated.slice(0, W);
        const bool affine = scheme.affine();
        std::vector<CellInfo> top(W), left(H + 1);
        const bool fresh = rng.chance(0.25);
        if (!fresh) {
          for (CellInfo& c : top) c = random_cell(rng, affine);
          for (CellInfo& c : left) c = random_cell(rng, affine);
        }
        const auto row0 = static_cast<std::uint32_t>(1 + rng.below(3000));
        const auto col0 = static_cast<std::uint32_t>(1 + rng.below(3000));

        BlockOut ref, vec;
        for (BlockOut* o : {&ref, &vec}) {
          o->bottom.assign(W, random_cell(rng, affine));  // overwritten
          o->right.assign(H + 1, random_cell(rng, affine));
        }
        const simd::CandBlock ref_blk{s.data(), H, t.data(), W, row0, col0,
                                      top.data(), left.data(),
                                      ref.bottom.data(), ref.right.data()};
        simd::CandBlock vec_blk = ref_blk;
        vec_blk.bottom = vec.bottom.data();
        vec_blk.right = vec.right.data();

        CandidateSink ref_sink(params);
        kernel.process_block(ref_blk, ref_sink);
        std::vector<simd::CandClose> closes;
        simd::avx2::cand_block(vec_blk, kernel.cand_params(), &closes);
        CandidateSink vec_sink(params);
        for (const auto& ev : closes) vec_sink.close(ev);

        const std::string where = "H=" + std::to_string(H) +
                                  " W=" + std::to_string(W) +
                                  (affine ? " affine" : " linear");
        ASSERT_EQ(vec.bottom, ref.bottom) << where;
        ASSERT_EQ(vec.right, ref.right) << where;
        ASSERT_EQ(vec_sink.queue(), ref_sink.queue()) << where;
        ++blocks;
        events += ref_sink.queue().size();
      }
    }
  }
  EXPECT_GT(blocks, 400u);
  EXPECT_GT(events, 100u) << "the corpus must exercise close events";
}

#endif  // GDSM_SIMD_AVX2

/// Runs every band of `grid` serially through compute_band, recording the
/// published bottom rows and the raw (unfinalized) sink sequence.
struct BandTrace {
  std::vector<std::vector<CellInfo>> bottoms;
  std::vector<Candidate> raw;
};

BandTrace trace_bands(const HeuristicKernel& kernel, const Sequence& s,
                      const Sequence& t, const core::BlockGrid& grid) {
  BandTrace out;
  std::vector<CellInfo> above(t.size()), below(t.size());
  for (std::size_t b = 0; b < grid.bands(); ++b) {
    CandidateSink sink(kernel.params());
    core::compute_band(
        kernel, s, t, grid, b, sink,
        [&](std::size_t k, std::span<CellInfo> dst) {
          const auto at = static_cast<std::ptrdiff_t>(grid.col_offsets[k]);
          std::copy_n(above.begin() + at, dst.size(), dst.begin());
        },
        [&](std::size_t k, std::span<const CellInfo> bottom) {
          const auto at = static_cast<std::ptrdiff_t>(grid.col_offsets[k]);
          std::copy(bottom.begin(), bottom.end(), below.begin() + at);
          out.bottoms.emplace_back(bottom.begin(), bottom.end());
        });
    out.raw.insert(out.raw.end(), sink.queue().begin(), sink.queue().end());
    std::swap(above, below);
  }
  return out;
}

TEST(CandKernel, ComputeBandPathsAgreeBandByBand) {
  if (!have_strip_kernel()) GTEST_SKIP() << "no AVX2 on this CPU";
  Rng rng(4242);
  for (int trial = 0; trial < 24; ++trial) {
    HomologousPairSpec spec;
    spec.length_s = 150 + rng.below(250);
    spec.length_t = 150 + rng.below(650);
    spec.n_regions = 1 + rng.below(2);
    spec.region_len_mean = 40;
    spec.region_len_spread = 10;
    spec.seed = 1000 + static_cast<std::uint64_t>(trial);
    const HomologousPair pair = make_homologous_pair(spec);
    const ScoreScheme scheme = random_scheme(rng);
    const HeuristicParams params = random_params(rng);
    const HeuristicKernel kernel(scheme, params);
    const core::BlockGrid grid = core::make_grid(
        pair.s.size(), pair.t.size(), 1 + rng.below(12), 1 + rng.below(12));

    BandTrace scalar, vec;
    {
      const BackendPin pin(simd::Backend::kScalar);
      scalar = trace_bands(kernel, pair.s, pair.t, grid);
    }
    {
      const BackendPin pin(simd::Backend::kAvx2);
      vec = trace_bands(kernel, pair.s, pair.t, grid);
    }
    ASSERT_EQ(vec.bottoms, scalar.bottoms) << "trial " << trial;
    ASSERT_EQ(vec.raw, scalar.raw) << "trial " << trial;

    std::vector<Candidate> queue = vec.raw;
    finalize_candidates(queue);
    EXPECT_EQ(queue, heuristic_scan(pair.s, pair.t, scheme, params))
        << "trial " << trial;
  }
}

TEST(CandKernel, ForcedScalarRoutesToTheReference) {
  const Sequence s("s", "ACGTACGT");
  const Sequence t("t", "ACGTTACGT");
  const std::vector<CellInfo> top(t.size()), left(s.size() + 1);
  CellInfo marker;
  marker.score = 12345;
  std::vector<CellInfo> bottom(t.size(), marker), right(s.size() + 1, marker);
  const simd::CandBlock blk{s.data(), s.size(), t.data(), t.size(), 1, 1,
                            top.data(), left.data(), bottom.data(),
                            right.data()};
  const HeuristicKernel kernel(ScoreScheme{}, HeuristicParams{});
  std::vector<simd::CandClose> closes;
  simd::reset_kernel_stats();
  {
    const BackendPin pin(simd::Backend::kScalar);
    ASSERT_EQ(simd::active_backend(), simd::Backend::kScalar);
    EXPECT_FALSE(simd::cand_block(blk, kernel.cand_params(), &closes));
    EXPECT_EQ(bottom.front().score, 12345) << "the refusal must touch nothing";
  }
  {
    const BackendPin pin(simd::Backend::kStripedScalar);
    EXPECT_FALSE(simd::cand_block(blk, kernel.cand_params(), &closes));
  }
  EXPECT_EQ(simd::kernel_stats().cand.calls, 0u) << "refusals are not metered";
  if (have_strip_kernel()) {
    for (const simd::Backend b :
         {simd::Backend::kAvx2, simd::Backend::kStripedAvx2}) {
      const BackendPin pin(b);
      EXPECT_TRUE(simd::cand_block(blk, kernel.cand_params(), &closes))
          << simd::backend_name(b);
      EXPECT_NE(bottom.front().score, 12345);
    }
    const simd::KernelCounters metered = simd::kernel_stats().cand;
    EXPECT_EQ(metered.calls, 2u);
    EXPECT_EQ(metered.cells, 2u * s.size() * t.size());
  }
}

// Whole strategies on the active backend (tier-1 reruns this suite under
// every GDSM_KERNEL value, so both kernel paths are covered).
HomologousPair strategy_pair(std::uint64_t seed) {
  HomologousPairSpec spec;
  spec.length_s = 500;
  spec.length_t = 700;
  spec.n_regions = 3;
  spec.region_len_mean = 60;
  spec.region_len_spread = 10;
  spec.seed = seed;
  return make_homologous_pair(spec);
}

TEST(CandKernel, BlockedMatchesSerialOnBothDsmBackends) {
  for (const bool affine : {false, true}) {
    const HomologousPair pair = strategy_pair(affine ? 12 : 11);
    core::BlockedConfig cfg;
    cfg.nprocs = 3;
    if (affine) {
      cfg.scheme.gap_open = -3;
      cfg.scheme.gap = -1;
    }
    const auto serial = heuristic_scan(pair.s, pair.t, cfg.scheme, cfg.params);
    ASSERT_FALSE(serial.empty());
    for (const dsm::Backend backend :
         {dsm::Backend::kThreads, dsm::Backend::kProcess}) {
      cfg.dsm.backend = backend;
      const core::StrategyResult r = core::blocked_align(pair.s, pair.t, cfg);
      EXPECT_EQ(r.candidates, serial)
          << (backend == dsm::Backend::kProcess ? "process" : "threads")
          << (affine ? " affine" : " linear");
    }
  }
}

TEST(CandKernel, BlockedMpMatchesSerialUnderEveryFaultPlan) {
  const HomologousPair pair = strategy_pair(13);
  core::BlockedConfig cfg;
  cfg.nprocs = 4;
  const auto serial = heuristic_scan(pair.s, pair.t, cfg.scheme, cfg.params);
  ASSERT_FALSE(serial.empty());
  std::vector<net::FaultPlan> plans = testing::standard_fault_plans(13000);
  plans.insert(plans.begin(), net::FaultPlan{});
  for (const net::FaultPlan& plan : plans) {
    cfg.dsm.faults = plan;
    const core::MpStrategyResult r =
        core::blocked_align_mp(pair.s, pair.t, cfg);
    EXPECT_EQ(r.candidates, serial) << plan.to_string();
  }
}

}  // namespace
}  // namespace gdsm
