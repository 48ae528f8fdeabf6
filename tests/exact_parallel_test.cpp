// Parallel exact alignment (Section 6 score pass distributed over message
// passing) must reproduce the serial Algorithm 1 exactly.
#include <gtest/gtest.h>

#include "core/exact_parallel.h"
#include "sw/full_matrix.h"
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "util/genome.h"
#include "util/rng.h"

namespace gdsm::core {
namespace {

struct ExactCase {
  int nprocs;
  std::size_t bands, blocks;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<ExactCase>& info) {
  return "p" + std::to_string(info.param.nprocs) + "_b" +
         std::to_string(info.param.bands) + "x" +
         std::to_string(info.param.blocks) + "_seed" +
         std::to_string(info.param.seed);
}

class ExactParallel : public testing::TestWithParam<ExactCase> {};

TEST_P(ExactParallel, MatchesSerialAlgorithm1) {
  const auto& prm = GetParam();
  HomologousPairSpec spec;
  spec.length_s = 600;
  spec.length_t = 600;
  spec.n_regions = 2;
  spec.region_len_mean = 90;
  spec.region_len_spread = 15;
  spec.seed = prm.seed;
  const HomologousPair pair = make_homologous_pair(spec);

  const BestLocal serial_best = sw_best_score_linear(pair.s, pair.t);
  const RebuildResult serial = rebuild_best_local_alignment(pair.s, pair.t);

  ExactParallelConfig cfg;
  cfg.nprocs = prm.nprocs;
  cfg.bands = prm.bands;
  cfg.blocks = prm.blocks;
  const ExactParallelResult par = exact_align_parallel(pair.s, pair.t, cfg);

  EXPECT_EQ(par.best.score, serial_best.score);
  EXPECT_EQ(par.best.end_i, serial_best.end_i);
  EXPECT_EQ(par.best.end_j, serial_best.end_j);
  EXPECT_EQ(par.rebuilt.alignment.score, serial.alignment.score);
  EXPECT_EQ(par.rebuilt.alignment.s_begin, serial.alignment.s_begin);
  EXPECT_EQ(par.rebuilt.alignment.t_begin, serial.alignment.t_begin);
  EXPECT_EQ(par.rebuilt.alignment.compute_score(pair.s, pair.t, ScoreScheme{}),
            par.rebuilt.alignment.score);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactParallel,
    testing::Values(ExactCase{1, 4, 4, 821}, ExactCase{2, 8, 8, 821},
                    ExactCase{4, 16, 16, 822}, ExactCase{8, 16, 7, 823},
                    ExactCase{3, 11, 13, 824}, ExactCase{4, 600, 1, 825},
                    ExactCase{4, 1, 600, 825}),
    case_name);

TEST(ExactParallelEdge, RandomInputTieBreaksLikeSerial) {
  // Random DNA has many equal-score cells: the reduction's lexicographic
  // tie-break must reproduce the serial scan's first-in-row-major choice.
  Rng rng(826);
  const Sequence s = random_dna(400, rng, "s");
  const Sequence t = random_dna(400, rng, "t");
  const BestLocal serial = sw_best_score_linear(s, t);
  ExactParallelConfig cfg;
  cfg.nprocs = 4;
  const ExactParallelResult par = exact_align_parallel(s, t, cfg);
  EXPECT_EQ(par.best.score, serial.score);
  EXPECT_EQ(par.best.end_i, serial.end_i);
  EXPECT_EQ(par.best.end_j, serial.end_j);
}

// A 4 kbp subject against a ~250 bp query: the serial scan runs over the
// transposed matrix, so its ties break column-major.  This is probe 176 of
// the repository benchmark's pair_service inputs at seed 14 (the generator
// in perfbench/perfbench.cpp, replayed here), whose best score 222 ends at
// both (251, 381) and (252, 380).
TEST(ExactParallelEdge, LongerSubjectTieFollowsTheSerialScan) {
  Rng rng(14 * 0x9e3779b97f4a7c15ull + 0x5eed);
  std::vector<Sequence> subjects;
  for (int k = 0; k < 4; ++k) {
    subjects.push_back(random_dna(4000, rng, "subject" + std::to_string(k)));
  }
  Sequence query;
  for (std::size_t i = 0; i <= 176; ++i) {
    const Sequence& subj = subjects[i % 4];
    const std::size_t b = rng.below(subj.size() - 250);
    query = mutate(subj.slice(b, b + 250), 0.05, 0.01, rng);
  }
  const Sequence& subject = subjects[176 % 4];
  ASSERT_EQ(query.size(), 252u);

  const BestLocal serial = sw_best_score_linear(query, subject);
  ASSERT_EQ(serial.score, 222);
  ASSERT_EQ(serial.end_i, 252u);
  ASSERT_EQ(serial.end_j, 380u);
  MatrixBest row_major;
  sw_fill(query, subject, ScoreScheme{}, &row_major);
  ASSERT_EQ(row_major.i, 251u) << "the case must keep its tie";

  for (const auto& [bands, blocks] :
       {std::pair<std::size_t, std::size_t>{0, 0}, {8, 8}, {3, 17}, {16, 1}}) {
    ExactParallelConfig cfg;
    cfg.nprocs = 4;
    cfg.bands = bands;
    cfg.blocks = blocks;
    const ExactParallelResult par = exact_align_parallel(query, subject, cfg);
    EXPECT_EQ(par.best.score, serial.score);
    EXPECT_EQ(par.best.end_i, serial.end_i) << bands << "x" << blocks;
    EXPECT_EQ(par.best.end_j, serial.end_j) << bands << "x" << blocks;
  }
}

// Two equally scoring copies placed so that row-major and column-major
// order pick different end cells, under both gap models and both
// orientations.
TEST(ExactParallelEdge, TiesFollowTheScannedOrientation) {
  Rng rng(828);
  const Sequence x = random_dna(30, rng, "x");
  const Sequence y = random_dna(30, rng, "y");
  const auto cat = [](std::initializer_list<const Sequence*> parts) {
    std::basic_string<Base> b;
    for (const Sequence* p : parts) b.append(p->bases().begin(), p->bases().end());
    return Sequence("c", std::move(b));
  };
  const Sequence pad = random_dna(70, rng, "pad");
  // s = x y, t = y pad x: x ends at (30, 130), y at (60, 30).
  const Sequence s = cat({&x, &y});
  const Sequence t = cat({&y, &pad, &x});
  ScoreScheme affine;
  affine.gap_open = -3;
  affine.gap = -1;
  for (const ScoreScheme& scheme : {ScoreScheme{}, affine}) {
    for (const bool swap : {false, true}) {
      const Sequence& a = swap ? t : s;
      const Sequence& b = swap ? s : t;
      const BestLocal serial = sw_best_score_linear(a, b, scheme);
      for (const int procs : {1, 3, 4}) {
        ExactParallelConfig cfg;
        cfg.nprocs = procs;
        cfg.scheme = scheme;
        const ExactParallelResult par = exact_align_parallel(a, b, cfg);
        EXPECT_EQ(par.best.score, serial.score);
        EXPECT_EQ(par.best.end_i, serial.end_i)
            << "swap " << swap << " procs " << procs;
        EXPECT_EQ(par.best.end_j, serial.end_j)
            << "swap " << swap << " procs " << procs;
      }
    }
  }
}

TEST(ExactParallelEdge, EmptyAndUnrelatedInputs) {
  const Sequence e("e", "");
  const Sequence a("a", "AAAAAAAA");
  const Sequence c("c", "CCCCCCCC");
  ExactParallelConfig cfg;
  cfg.nprocs = 2;
  EXPECT_EQ(exact_align_parallel(e, a, cfg).best.score, 0);
  EXPECT_EQ(exact_align_parallel(a, c, cfg).best.score, 0);
  EXPECT_TRUE(exact_align_parallel(a, c, cfg).rebuilt.alignment.ops.empty());
}

TEST(ExactParallelEdge, HirschbergVariant) {
  HomologousPairSpec spec;
  spec.length_s = 500;
  spec.length_t = 500;
  spec.n_regions = 1;
  spec.region_len_mean = 120;
  spec.region_len_spread = 10;
  spec.seed = 827;
  const HomologousPair pair = make_homologous_pair(spec);
  ExactParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.use_hirschberg = true;
  const ExactParallelResult par = exact_align_parallel(pair.s, pair.t, cfg);
  EXPECT_EQ(par.best.score, sw_best_score_linear(pair.s, pair.t).score);
  EXPECT_EQ(par.rebuilt.alignment.compute_score(pair.s, pair.t, ScoreScheme{}),
            par.best.score);
}

}  // namespace
}  // namespace gdsm::core
