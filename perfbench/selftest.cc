// Unit checks for the benchmark's own arithmetic (stats.h): Zipfian
// rank frequencies, the percentile rule, span self time with
// overlapping children, and counter ratios with a zero denominator.
// run.py runs this after every build and refuses to benchmark when a
// check fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

void CheckZipf() {
  const size_t n = 1000;
  const double theta = 0.99;
  perfbench::Zipf zipf(n, theta);
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += zipf.Probability(i);
  Check(Near(total, 1.0, 1e-9), "zipf probabilities sum to 1");
  Check(Near(zipf.Probability(0) / zipf.Probability(1), std::pow(2, theta),
             1e-9),
        "zipf p(0)/p(1) = 2^theta");
  Check(Near(zipf.Probability(9) / zipf.Probability(99),
             std::pow(10, theta), 1e-9),
        "zipf p(9)/p(99) = 10^theta");

  perfbench::SplitMix rng(7);
  const size_t draws = 400000;
  std::vector<size_t> counts(n);
  for (size_t i = 0; i < draws; ++i) {
    const size_t r = zipf.Sample(rng);
    if (r >= n) {
      Check(false, "zipf sample in range");
      return;
    }
    ++counts[r];
  }
  for (size_t rank : {0, 1, 2, 9}) {
    const double expected = zipf.Probability(rank) * draws;
    // Binomial standard deviation; five of them is a false alarm rate
    // far below one in a million.
    const double sd = std::sqrt(expected * (1 - zipf.Probability(rank)));
    Check(std::fabs(counts[rank] - expected) <= 5 * sd,
          "zipf empirical rank frequency within 5 sd");
  }
  // The same seed gives the same stream.
  perfbench::SplitMix a(42), b(42);
  bool same = true;
  for (int i = 0; i < 100; ++i) same &= zipf.Sample(a) == zipf.Sample(b);
  Check(same, "zipf stream is a function of the seed");
}

void CheckPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  Check(perfbench::Percentile(v, 50) == 50, "p50 of 1..100 is 50");
  Check(perfbench::Percentile(v, 99) == 99, "p99 of 1..100 is 99");
  Check(perfbench::Percentile(v, 100) == 100, "p100 is the max");
  Check(perfbench::Percentile({7}, 99) == 7, "one sample is every rank");
  Check(perfbench::Percentile({}, 50) == 0, "no samples gives 0");
  // Nearest rank never interpolates: p50 of {1, 2} is 1, not 1.5.
  Check(perfbench::Percentile({2, 1}, 50) == 1, "nearest rank, no blend");
  Check(perfbench::Percentile({1, 2, 3}, 99) == 3, "p99 of three is max");
  Check(perfbench::Median({5, 1, 3}) == 3, "median of three");
}

void CheckSelfTimes() {
  using perfbench::SpanTimes;
  // root [0,100) with children [10,40) and [30,60) overlapping by 10,
  // and a grandchild [15,25) inside the first child.
  std::vector<SpanTimes> spans = {
      {0, 100, -1}, {10, 40, 0}, {30, 60, 0}, {15, 25, 1}};
  std::vector<int64_t> self = perfbench::SelfTimes(spans);
  Check(self[0] == 50, "root self = 100 - union(10..60)");
  Check(self[1] == 20, "child self = 30 - grandchild 10");
  Check(self[2] == 30, "overlapping sibling keeps its own duration");
  Check(self[3] == 10, "leaf self = duration");

  // A child spilling past its parent counts only inside the parent.
  std::vector<SpanTimes> spill = {{0, 10, -1}, {5, 20, 0}};
  Check(perfbench::SelfTimes(spill)[0] == 5, "child clipped to parent");

  // A child nested wholly inside a sibling adds no coverage.
  std::vector<SpanTimes> nested = {{0, 100, -1}, {0, 50, 0}, {10, 20, 0}};
  Check(perfbench::SelfTimes(nested)[0] == 50, "nested sibling counted once");

  // Self times of a tree with disjoint children add up to the root.
  std::vector<SpanTimes> flat = {{0, 90, -1}, {0, 30, 0}, {30, 90, 0}};
  std::vector<int64_t> f = perfbench::SelfTimes(flat);
  Check(f[0] + f[1] + f[2] == 90, "disjoint self times sum to the root");
}

void CheckRatio() {
  Check(perfbench::Ratio(5, 0) == 0, "x / 0 reports 0");
  Check(perfbench::Ratio(0, 0) == 0, "0 / 0 reports 0");
  Check(perfbench::Ratio(3, 4) == 0.75, "ordinary ratio");
}

}  // namespace

int main() {
  CheckZipf();
  CheckPercentile();
  CheckSelfTimes();
  CheckRatio();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
