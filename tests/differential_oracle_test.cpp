// The cross-strategy differential oracle (src/testing): every parallel
// strategy must reproduce its serial reference bit-for-bit, with and without
// injected interconnect faults.  This is the acceptance suite of the fault
// layer: all four strategies under every standard fault plan.
#include <gtest/gtest.h>

#include <string>

#include "sw/linear_score.h"
#include "testing/gotoh_ref.h"
#include "testing/oracle.h"

namespace gdsm {
namespace {

using testing::OracleCase;
using testing::OracleVerdict;

OracleCase small_case(std::uint64_t seed) {
  OracleCase c;
  c.seed = seed;
  c.length_s = 400;
  c.length_t = 400;
  c.n_regions = 3;
  c.nprocs = 4;
  c.retry.timeout_us = 2000;  // keep the retry layer in play under faults
  return c;
}

TEST(DifferentialOracleTest, AllStrategiesMatchSerialWithoutFaults) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const OracleVerdict v = run_differential(small_case(seed));
    EXPECT_TRUE(v.ok) << "seed " << seed << ":\n" << v.summary();
    EXPECT_EQ(v.outcomes.size(), 4u);
    EXPECT_GT(v.serial_best, 0) << "seed " << seed << " has no signal";
    EXPECT_GT(v.serial_candidates, 0u);
  }
}

struct PlanCase {
  std::uint64_t seed;
  std::size_t plan_index;  ///< into standard_fault_plans
};

class OracleUnderFaults : public ::testing::TestWithParam<PlanCase> {};

// The ISSUE's acceptance matrix: all four strategies, >= 3 distinct seeded
// fault plans (drop/retry, reorder, delay, plus the combined plan), exact
// score and region-set agreement with the serial references.
TEST_P(OracleUnderFaults, MatchesSerialReferences) {
  const auto& [seed, plan_index] = GetParam();
  OracleCase c = small_case(seed);
  const auto plans = testing::standard_fault_plans(seed * 1000);
  ASSERT_LT(plan_index, plans.size());
  c.faults = plans[plan_index];
  ASSERT_TRUE(c.faults.enabled());

  const OracleVerdict v = run_differential(c);
  EXPECT_TRUE(v.ok) << c.to_string() << "\n" << v.summary();

  // The plan must have actually perturbed the run for at least one strategy,
  // otherwise this acceptance test proves nothing.
  std::uint64_t injected = 0;
  for (const auto& o : v.outcomes) injected += o.faults.total();
  EXPECT_GT(injected, 0u) << "plan " << c.faults.to_string()
                          << " never fired";
}

std::string plan_case_name(const ::testing::TestParamInfo<PlanCase>& info) {
  static constexpr const char* kPlanNames[] = {"drop", "reorder", "delay",
                                               "chaos"};
  return std::string(kPlanNames[info.param.plan_index]) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, OracleUnderFaults,
    ::testing::Values(PlanCase{1, 0}, PlanCase{1, 1}, PlanCase{1, 2},
                      PlanCase{1, 3}, PlanCase{2, 0}, PlanCase{2, 1},
                      PlanCase{2, 2}, PlanCase{2, 3}),
    plan_case_name);

// n > m: seed 1127 at 200 x 500 has two best cells, (103, 221) and
// (104, 220).  Row-major order picks the first; sw_best_score_linear, which
// scans the transposed matrix when t is the longer sequence, the second,
// and so do the serial Gotoh references.
// The serial cross-check and every strategy must follow the scanned
// orientation under both gap models.
TEST(DifferentialOracleTest, LongerSubjectTieFollowsScannedOrientation) {
  for (const bool affine : {false, true}) {
    OracleCase c = small_case(1127);
    c.length_s = 200;
    c.length_t = 500;
    if (affine) {
      c.scheme.gap_open = -3;
      c.scheme.gap = -1;
    }
    const HomologousPair pair = c.make_pair();
    const BestLocal serial = sw_best_score_linear(pair.s, pair.t, c.scheme);
    // A best cell in an earlier row, which a row-major scan would pick.
    const Sequence upper = pair.s.slice(0, serial.end_i - 1);
    ASSERT_EQ(testing::gotoh_best_ref(upper, pair.t, c.scheme).score,
              serial.score)
        << "the case must keep its tie";

    const OracleVerdict v = run_differential(c);
    EXPECT_TRUE(v.ok) << c.to_string() << "\n" << v.summary();
  }
}

TEST(DifferentialOracleTest, MaskRestrictsWhichStrategiesRun) {
  const OracleVerdict v =
      run_differential(small_case(5), testing::kBlockedMp);
  ASSERT_EQ(v.outcomes.size(), 1u);
  EXPECT_EQ(v.outcomes[0].name, "blocked_mp");
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(DifferentialOracleTest, MinimizeKeepsPassingCasesUntouched) {
  const OracleCase c = small_case(3);
  const OracleCase m = testing::minimize(c);
  EXPECT_EQ(m.length_s, c.length_s);
  EXPECT_EQ(m.n_regions, c.n_regions);
  EXPECT_EQ(m.nprocs, c.nprocs);
}

TEST(DifferentialOracleTest, CaseDescribesItself) {
  OracleCase c = small_case(9);
  c.faults = testing::standard_fault_plans(9)[0];
  const std::string repro = c.to_string();
  EXPECT_NE(repro.find("seed=9"), std::string::npos);
  EXPECT_NE(repro.find("faults=seed="), std::string::npos);
  EXPECT_NE(repro.find("drop=0.2"), std::string::npos);
  // The embedded plan spec must round-trip through the parser.
  const auto at = repro.find("faults=");
  const net::FaultPlan reparsed =
      net::FaultPlan::parse(repro.substr(at + 7));
  EXPECT_EQ(reparsed, c.faults);
}

}  // namespace
}  // namespace gdsm
