// Self-test of the benchmark's statistics helpers (stats.h): exact-sample
// quantiles and the "highest percentile with ten samples beyond it" rule.  Run by
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

std::size_t beyond(const std::vector<double>& v, double x) {
  std::size_t k = 0;
  for (double y : v) k += y > x ? 1 : 0;
  return k;
}

void test_quantiles() {
  using perfbench::quantile;
  expect(quantile({}, 0.5) == 0, "empty quantile is 0");
  expect(quantile({7}, 0.99) == 7, "single sample");
  expect(quantile(one_to(100), 0.5) == 50, "median of 1..100 (nearest rank)");
  expect(quantile(one_to(100), 0.99) == 99, "p99 of 1..100");
  expect(quantile(one_to(100), 1.0) == 100, "p100 is the maximum");
  expect(quantile(one_to(1000), 0.99) == 990, "p99 of 1..1000");
  expect(quantile(one_to(3), 0.0) == 1, "p0 is the minimum");
}

void test_tail_rule() {
  using perfbench::tail;
  // Enough samples: the tail is p99 and at least ten samples lie beyond it.
  for (int n : {1000, 1010, 1500, 5000}) {
    const auto v = one_to(n);
    const perfbench::Tail t = tail(v);
    expect(t.level == 0.99, "p99 once n >= 1000");
    expect(beyond(v, t.value) >= 10, "ten samples beyond p99");
  }
  // Fewer samples: the highest level that still leaves ten beyond it.
  for (int n : {20, 37, 100, 250, 999}) {
    const auto v = one_to(n);
    const perfbench::Tail t = tail(v);
    expect(t.level < 0.99, "below p99 when n < 1000");
    expect(beyond(v, t.value) == 10, "exactly ten beyond the rule's level");
    expect(t.n == static_cast<std::size_t>(n), "tail states its sample count");
  }
  expect(tail(one_to(100)).level == 0.9, "n = 100 gives p90");
  expect(tail(one_to(1500), 0.95).level == 0.95, "a lower cap is honoured");
  expect(beyond(one_to(1500), tail(one_to(1500), 0.95).value) == 75, "p95 of 1500");
  // Too few for any tail: the median, flagged by its level.
  expect(tail(one_to(15)).level == 0.5, "n < 20 falls back to the median");
  expect(tail(one_to(15)).value == 8, "median of 1..15");
}

}  // namespace

int main() {
  test_quantiles();
  test_tail_rule();
  std::fprintf(stderr, "perfbench_selftest: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}
