// The benchmark's own arithmetic: the seeded random streams, the
// Zipfian key sampler, the percentile rule, span self time, and counter
// ratios. Header-only and free of xsql dependencies so selftest.cc can
// check every rule in isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, fully specified generator, so the same seed gives
/// the same key and template streams on every platform and library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a stream
/// index (one per connection, one for the key permutation, ...).
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix mix(seed * 0x100000001B3ull + stream);
  return mix.Next();
}

/// Zipfian ranks over [0, n): P(rank = i) = (1 / (i + 1)^theta) / H,
/// with H the normalizing sum — YCSB's distribution, sampled exactly by
/// inverting the precomputed CDF (n is at most a few thousand keys).
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  /// The exact probability of `rank`.
  double Probability(size_t rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

  size_t Sample(SplitMix& rng) const {
    const double u = rng.Unit();
    const size_t i = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile: the smallest sample such that at least
/// p percent of the samples are at or below it, i.e. sorted[ceil(p/100 *
/// n) - 1]. Returns 0 for an empty set. `p` is in (0, 100].
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// A counter ratio; a zero denominator (no writes on a read-only
/// workload, no lookups before the first statement) yields 0, never a
/// NaN or an infinity in the report.
inline double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

/// One recorded span: [start_ns, end_ns) and the index of its parent in
/// the same vector (-1 for a root).
struct SpanTimes {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may overlap each other (a span handed to
/// another thread, or two clocks' rounding); the covered part is the
/// union of the children's intervals clipped to the parent, so overlap
/// is never subtracted twice and self time is never negative.
inline std::vector<int64_t> SelfTimes(const std::vector<SpanTimes>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const SpanTimes& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [a, b] : kids) {
      const int64_t from = std::max(a, cursor);
      const int64_t to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
