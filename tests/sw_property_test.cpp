// Property-based sweeps over random inputs: the algebraic invariants the DP
// kernels must satisfy for any sequences and (sane) scoring schemes.
#include <gtest/gtest.h>

#include "db/subject_db.h"
#include "sw/affine.h"
#include "sw/full_matrix.h"
#include "sw/hirschberg.h"
#include "sw/linear_score.h"
#include "testing/oracle.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm {
namespace {

struct PropCase {
  std::uint64_t seed;
  std::size_t len_s;
  std::size_t len_t;
  ScoreScheme scheme;
};

std::string prop_name(const ::testing::TestParamInfo<PropCase>& info) {
  const auto& p = info.param;
  return "seed" + std::to_string(p.seed) + "_s" + std::to_string(p.len_s) +
         "_t" + std::to_string(p.len_t) + "_m" + std::to_string(p.scheme.match) +
         "_x" + std::to_string(-p.scheme.mismatch) + "_g" +
         std::to_string(-p.scheme.gap);
}

class SwProperty : public ::testing::TestWithParam<PropCase> {
 protected:
  void SetUp() override {
    Rng rng(GetParam().seed);
    s_ = random_dna(GetParam().len_s, rng, "s");
    t_ = random_dna(GetParam().len_t, rng, "t");
  }
  Sequence s_, t_;
};

TEST_P(SwProperty, LocalScoreIsSymmetric) {
  const auto& scheme = GetParam().scheme;
  EXPECT_EQ(sw_best_score_linear(s_, t_, scheme).score,
            sw_best_score_linear(t_, s_, scheme).score);
}

TEST_P(SwProperty, LinearEqualsFullMatrix) {
  const auto& scheme = GetParam().scheme;
  MatrixBest best;
  sw_fill(s_, t_, scheme, &best);
  EXPECT_EQ(sw_best_score_linear(s_, t_, scheme).score, best.score);
}

TEST_P(SwProperty, ReverseInvariance) {
  // Observation 6.1: alignments of the reverses mirror the originals, so the
  // best local score is invariant under reversing both sequences.
  const auto& scheme = GetParam().scheme;
  EXPECT_EQ(sw_best_score_linear(s_, t_, scheme).score,
            sw_best_score_linear(s_.reversed(), t_.reversed(), scheme).score);
}

TEST_P(SwProperty, LocalDominatesGlobal) {
  const auto& scheme = GetParam().scheme;
  const Alignment local = smith_waterman(s_, t_, scheme);
  const Alignment global = needleman_wunsch(s_, t_, scheme);
  EXPECT_GE(local.score, 0);
  EXPECT_GE(local.score, global.score);
}

TEST_P(SwProperty, TracebackScoreConsistent) {
  const auto& scheme = GetParam().scheme;
  const Alignment local = smith_waterman(s_, t_, scheme);
  EXPECT_EQ(local.compute_score(s_, t_, scheme), local.score);
  EXPECT_LE(local.s_end(), s_.size());
  EXPECT_LE(local.t_end(), t_.size());
}

TEST_P(SwProperty, HirschbergEqualsNeedlemanWunsch) {
  const auto& scheme = GetParam().scheme;
  const Alignment h = hirschberg(s_, t_, scheme);
  const Alignment nw = needleman_wunsch(s_, t_, scheme);
  EXPECT_EQ(h.score, nw.score);
  EXPECT_EQ(h.compute_score(s_, t_, scheme), h.score);
}

TEST_P(SwProperty, SubstringScoreIsMonotone) {
  // Any local alignment inside a substring of s exists unchanged in s, so
  // extending a sequence can only keep or raise the best local score.
  const auto& scheme = GetParam().scheme;
  const int full = sw_best_score_linear(s_, t_, scheme).score;
  for (const double frac : {0.25, 0.5, 0.75}) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(s_.size()) * frac);
    EXPECT_LE(sw_best_score_linear(s_.slice(0, cut), t_, scheme).score, full);
    EXPECT_LE(sw_best_score_linear(s_.slice(cut, s_.size()), t_, scheme).score,
              full);
  }
}

TEST_P(SwProperty, ConcatenationIsLowerBoundedByParts) {
  // s_ and t_ both survive intact inside s_ + t_, so aligning the
  // concatenation against either part scores at least as well as the best
  // of the parts against it.
  const auto& scheme = GetParam().scheme;
  Sequence cat = s_;
  for (std::size_t i = 0; i < t_.size(); ++i) cat.append(t_[i]);
  const int parts = std::max(sw_best_score_linear(s_, t_, scheme).score,
                             sw_best_score_linear(t_, t_, scheme).score);
  EXPECT_GE(sw_best_score_linear(cat, t_, scheme).score, parts);
}

TEST_P(SwProperty, AffineWithZeroOpenEqualsLinear) {
  // gap(k) = open + k*extend degenerates to the linear model when open == 0;
  // the kernels promise bit-identity, not just equal scores, so compare the
  // end cell too.
  ScoreScheme affine = GetParam().scheme;
  affine.gap_open = 0;  // explicit: the affine recurrence with a free open
  const BestLocal lin = sw_best_score_linear(s_, t_, GetParam().scheme);
  const BestLocal aff = sw_best_score_affine_linear(
      s_, t_, AffineScheme{affine.match, affine.mismatch, 0, affine.gap});
  EXPECT_EQ(lin.score, aff.score);
  EXPECT_EQ(lin.end_i, aff.end_i);
  EXPECT_EQ(lin.end_j, aff.end_j);
}

TEST_P(SwProperty, AffineScoreMonotoneInExtendPenalty) {
  // Every alignment's score is non-increasing as the extension penalty
  // deepens, so the best score is too.
  ScoreScheme sc = GetParam().scheme;
  sc.gap_open = -3;
  int prev = sw_best_score_linear(s_, t_, sc).score;
  for (int extend = sc.gap - 1; extend >= sc.gap - 3; --extend) {
    ScoreScheme harsher = sc;
    harsher.gap = extend;
    const int cur = sw_best_score_linear(s_, t_, harsher).score;
    EXPECT_LE(cur, prev) << "extend=" << extend;
    prev = cur;
  }
}

TEST_P(SwProperty, AffineIsUpperBoundedByLinear) {
  // Affine charges the (negative) open on top of the same per-space extend,
  // so no alignment can score better than under the linear model.
  ScoreScheme affine = GetParam().scheme;
  affine.gap_open = -4;
  EXPECT_LE(sw_best_score_linear(s_, t_, affine).score,
            sw_best_score_linear(s_, t_, GetParam().scheme).score);
}

TEST_P(SwProperty, AffineKernelsMatchSerialGotoh) {
  // The dispatched kernel path (sw_best_score_linear routes affine schemes
  // to the Gotoh kernels) against the independent scalar reference.
  ScoreScheme sc = GetParam().scheme;
  sc.gap_open = -3;
  const BestLocal kernel = sw_best_score_linear(s_, t_, sc);
  const BestLocal ref = sw_best_score_affine_linear(s_, t_, to_affine(sc));
  EXPECT_EQ(kernel.score, ref.score);
  EXPECT_EQ(kernel.end_i, ref.end_i);
  EXPECT_EQ(kernel.end_j, ref.end_j);
}

TEST_P(SwProperty, HirschbergAffineEqualsGotoh) {
  ScoreScheme sc = GetParam().scheme;
  sc.gap_open = -3;
  const AffineScheme asc = to_affine(sc);
  const Alignment h = hirschberg_affine(s_, t_, asc);
  const Alignment nw = needleman_wunsch_affine(s_, t_, asc);
  EXPECT_EQ(h.score, nw.score);
  EXPECT_EQ(affine_alignment_score(h, s_, t_, asc), h.score);
}

TEST_P(SwProperty, NwLastRowMatchesMatrix) {
  const auto& scheme = GetParam().scheme;
  const DpMatrix a = nw_fill(s_, t_, scheme);
  const std::vector<int> last = nw_last_row(s_, t_, scheme);
  ASSERT_EQ(last.size(), a.cols());
  for (std::size_t j = 0; j < last.size(); ++j) {
    EXPECT_EQ(last[j], a.at(a.rows() - 1, j));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, SwProperty,
    ::testing::Values(
        PropCase{11, 40, 40, ScoreScheme{}},
        PropCase{12, 64, 32, ScoreScheme{}},
        PropCase{13, 33, 65, ScoreScheme{}},
        PropCase{14, 100, 100, ScoreScheme{}},
        PropCase{15, 1, 50, ScoreScheme{}},
        PropCase{16, 50, 1, ScoreScheme{}},
        PropCase{17, 128, 120, ScoreScheme{2, -1, -3}},
        PropCase{18, 77, 90, ScoreScheme{1, -2, -1}},
        PropCase{19, 90, 77, ScoreScheme{3, -2, -4}},
        PropCase{20, 200, 150, ScoreScheme{}},
        PropCase{21, 150, 200, ScoreScheme{1, -3, -5}}),
    prop_name);

// Homologous (planted) pairs must carry a strong local signal.
TEST(SwPlanted, PlantedRegionScoresHigh) {
  HomologousPairSpec spec;
  spec.length_s = 2000;
  spec.length_t = 2000;
  spec.n_regions = 2;
  spec.region_len_mean = 200;
  spec.region_len_spread = 20;
  spec.seed = 31;
  const HomologousPair pair = make_homologous_pair(spec);
  const BestLocal best = sw_best_score_linear(pair.s, pair.t);
  // A ~200 bp region at ~95% identity scores far above random background
  // (random DNA of this size stays below ~30).
  EXPECT_GT(best.score, 100);
}

// The differential oracle's seeded case generation must be deterministic
// and its two serial exact references must agree — the preconditions for
// the fault-matrix suite (tests/differential_oracle_test.cpp) to mean
// anything.  Mask 0 runs only the serial cross-check.
TEST(SwPlanted, OracleCaseIsDeterministicAndSelfConsistent) {
  testing::OracleCase c;
  c.seed = 23;
  c.length_s = c.length_t = 500;
  const HomologousPair a = c.make_pair();
  const HomologousPair b = c.make_pair();
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.t, b.t);
  const testing::OracleVerdict v = run_differential(c, /*mask=*/0);
  EXPECT_TRUE(v.ok) << v.summary();
  EXPECT_GT(v.serial_best, 0);
  EXPECT_GT(v.serial_candidates, 0u);
}

// ----------------------------------------------- q-gram filtration bound --
// The database filter (src/db/subject_db.h) may discard a fragment only
// when its bound provably dominates the true alignment score.  These sweeps
// assert admissibility — bound >= Smith-Waterman (and Gotoh) score — on
// random pairs and on the adversarial shapes that stress the seeded-run DP:
// high-identity pairs (long match runs, every window seeded) and tandem
// repeats (the same q-grams recur everywhere, so seeding is dense while
// the true alignment still pays for the mutations).

ScoreScheme affine_scheme() {
  ScoreScheme sc;
  sc.gap_open = -3;
  sc.gap = -1;
  return sc;
}

void expect_admissible(const Sequence& a, const Sequence& b,
                       const ScoreScheme& sc, std::size_t q,
                       const char* what) {
  const int truth = sw_best_score_linear(a, b, sc).score;
  const int bound = db::qgram_score_bound(a, b, sc, q);
  EXPECT_GE(bound, truth) << what << ": q=" << q
                          << " gap=" << gap_model_name(sc.gap_model())
                          << " a=" << a.size() << " b=" << b.size();
}

TEST(QGramBound, NeverBelowTrueScoreOnRandomPairs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const std::size_t la = 40 + rng.below(200);
    const std::size_t lb = 40 + rng.below(200);
    const Sequence a = random_dna(la, rng, "a");
    const Sequence b = random_dna(lb, rng, "b");
    for (const std::size_t q : {3u, 5u, 8u}) {
      expect_admissible(a, b, ScoreScheme{}, q, "random/linear");
      expect_admissible(a, b, affine_scheme(), q, "random/affine");
    }
  }
}

TEST(QGramBound, NeverBelowTrueScoreOnHighIdentityPairs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 131);
    const Sequence a = random_dna(120 + rng.below(120), rng, "a");
    // 0.5%..10% divergence: long exact match runs, the regime where the
    // seeded-run DP must extend runs past q-1 and stay above the truth.
    const double sub = 0.005 + 0.001 * static_cast<double>(rng.below(95));
    const Sequence b = mutate(a, sub, sub / 4, rng);
    for (const std::size_t q : {3u, 5u, 8u}) {
      expect_admissible(a, b, ScoreScheme{}, q, "identity/linear");
      expect_admissible(a, b, affine_scheme(), q, "identity/affine");
    }
  }
}

TEST(QGramBound, NeverBelowTrueScoreOnTandemRepeats) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 733);
    // A short unit tiled many times: every q-gram of the repeat occurs in
    // both sequences, so seeding is maximal while mutations keep the true
    // score below perfect.
    const std::size_t unit_len = 3 + rng.below(9);
    const Sequence unit = random_dna(unit_len, rng, "unit");
    std::basic_string<Base> tiled;
    while (tiled.size() < 180) {
      tiled.append(unit.bases().begin(), unit.bases().end());
    }
    const Sequence a("rep_a", std::basic_string<Base>(tiled));
    const Sequence b = mutate(a, 0.08, 0.02, rng);
    for (const std::size_t q : {3u, 5u, 8u}) {
      expect_admissible(a, b, ScoreScheme{}, q, "tandem/linear");
      expect_admissible(a, b, affine_scheme(), q, "tandem/affine");
    }
  }
}

TEST(QGramBound, ExactOnIdenticalSequences) {
  Rng rng(77);
  const Sequence a = random_dna(150, rng, "a");
  // Self-comparison: every window is seeded, so the DP reaches the perfect
  // all-match score and the bound is tight (it cannot exceed m * match).
  EXPECT_EQ(db::qgram_score_bound(a, a, ScoreScheme{}, 5), 150);
  EXPECT_EQ(db::qgram_score_bound(a, a, affine_scheme(), 5), 150);
}

}  // namespace
}  // namespace gdsm
