// The FPRAS's (epsilon, delta) guarantee as a statistical property over many
// seeds, on automata whose unions overlap, so every estimate runs
// Karp–Luby–Madras trials. At each tree size, the number of seeds whose
// estimate misses the exact count (ExactTreeCounter) by more than a
// relative epsilon must fit delta: at most the one-sided binomial bound
// that Bin(seeds, delta) exceeds with probability at most 1e-6.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "automata/nfta.h"
#include "test_automata.h"

namespace uocqa {
namespace {

constexpr int kSeeds = 64;
constexpr double kDelta = 0.1;
constexpr double kFalseAlarm = 1e-6;

/// The smallest k with P[Bin(n, p) > k] <= alpha.
size_t MissBound(int n, double p, double alpha) {
  std::vector<double> pmf(n + 1);
  pmf[0] = std::pow(1 - p, n);
  for (int i = 0; i < n; ++i) {
    pmf[i + 1] = pmf[i] * (n - i) / (i + 1) * p / (1 - p);
  }
  double tail = 0;  // P[X > k], summed from the top for accuracy
  for (int k = n; k > 0; --k) {
    tail += pmf[k];
    if (tail > alpha) return static_cast<size_t>(k);
  }
  return 0;
}

TEST(MissBoundTest, MatchesTheBinomialTail) {
  // Bin(64, 0.1) has mean 6.4; P[X > 20] is about 5.6e-7, P[X > 19]
  // about 2.5e-6.
  EXPECT_EQ(MissBound(kSeeds, kDelta, kFalseAlarm), 20u);
  EXPECT_EQ(MissBound(10, 0.5, 0.5), 5u);  // P[X > 5] = 0.377
  EXPECT_EQ(MissBound(10, 0.5, 1.0), 0u);
}

/// Runs seeds 1..kSeeds at `epsilon` and delta kDelta over sizes
/// [min_size, max_size] of `a`, one estimator per seed.
void ExpectGuarantee(const std::string& name, const Nfta& a, double epsilon,
                     size_t min_size, size_t max_size) {
  ExactTreeCounter exact(a);
  std::vector<double> want(max_size + 1);
  for (size_t s = min_size; s <= max_size; ++s) {
    want[s] = std::stod(exact.CountExactSize(s).ToString());
    ASSERT_GT(want[s], 0) << name << " size " << s;
  }
  std::vector<size_t> misses(max_size + 1, 0);
  double worst = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    FprasConfig config;
    config.epsilon = epsilon;
    config.delta = kDelta;
    config.seed = seed;
    NftaFpras fpras(a, config);
    for (size_t s = min_size; s <= max_size; ++s) {
      double error = std::abs(fpras.EstimateExactSize(s) / want[s] - 1);
      worst = std::max(worst, error);
      if (error > epsilon) ++misses[s];
    }
    EXPECT_GT(fpras.klm_samples(), 0u) << name << " seed " << seed;
  }
  size_t bound = MissBound(kSeeds, kDelta, kFalseAlarm);
  for (size_t s = min_size; s <= max_size; ++s) {
    EXPECT_LE(misses[s], bound) << name << " size " << s;
  }
  ::testing::Test::RecordProperty(name + "_worst_relative_error",
                                  std::to_string(worst));
}

TEST(FprasGuaranteeTest, OverlapAutomatonSeedSweep) {
  ExpectGuarantee("overlap", OverlapAutomaton(), 0.15, 2, 7);
}

TEST(FprasGuaranteeTest, AmbiguousAutomatonSeedSweep) {
  ExpectGuarantee("ambiguous4", AmbiguousAutomaton(4), 0.1, 2, 8);
}

}  // namespace
}  // namespace uocqa
