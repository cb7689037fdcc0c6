// Pins the statistics every lhws_bench number goes through.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"

namespace lhws_bench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  // Python: statistics.quantiles([1..5], n=4, method='inclusive') and numpy
  // agree on this estimator.
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5).value, 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25).value, 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9).value, 4.6);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0).value, 5.0);
  EXPECT_EQ(percentile(v, 0.5).n, 5U);
}

TEST(Percentile, EmptyAndSingleton) {
  EXPECT_EQ(percentile({}, 0.5).n, 0U);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5).value, 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.99).value, 7.5);
  EXPECT_EQ(percentile({7.5}, 0.99).n, 1U);
}

TEST(WindowedQuantile, MedianOfPerWindowTails) {
  // Three 1-s windows of 100 samples; the middle one has a 10x tail. The
  // per-window p99s are ~99, ~990 and ~99: the median ignores the stall.
  std::vector<timed_value> s;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) {
      const double v = w == 1 ? 10.0 * i : i;
      s.push_back({w * 1'000'000'000LL + i * 1'000'000LL, v});
    }
  }
  const pct p = windowed_quantile(s, 1'000'000'000, 0.99, 20);
  EXPECT_EQ(p.n, 3U);
  EXPECT_NEAR(p.value, 99.01, 1e-9);
}

TEST(WindowedQuantile, SkipsSparseWindows) {
  std::vector<timed_value> s;
  for (int i = 0; i < 30; ++i) s.push_back({i * 1'000'000LL, 1.0});
  s.push_back({5'000'000'000LL, 1000.0});  // lone sample in a late window
  const pct p = windowed_quantile(s, 1'000'000'000, 0.99, 20);
  EXPECT_EQ(p.n, 1U);
  EXPECT_DOUBLE_EQ(p.value, 1.0);
}

TEST(GenLag, CountsOnlyTheGeneratorsOwnDelay) {
  // Sent 30 us after its schedule, the connection idle: all of it is lag.
  EXPECT_EQ(gen_lag_ns(1000, 31'000, 0), 30'000);
  // Due at 1000 but the previous reply only came at 50'000: waiting for it
  // is queueing, so only the 2 us after it count.
  EXPECT_EQ(gen_lag_ns(1000, 52'000, 50'000), 2000);
  // Never negative.
  EXPECT_EQ(gen_lag_ns(5000, 4000, 0), 0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const interval parent{0, 100};
  EXPECT_EQ(self_time_ns(parent, {}), 100);
  EXPECT_EQ(self_time_ns(parent, {{10, 30}, {50, 60}}), 70);
  // Overlapping (parallel) children count once.
  EXPECT_EQ(self_time_ns(parent, {{10, 40}, {20, 50}, {45, 55}}), 55);
  // Children sticking out of the parent are clipped.
  EXPECT_EQ(self_time_ns(parent, {{-20, 10}, {90, 130}}), 80);
  // A child covering the parent leaves no self time.
  EXPECT_EQ(self_time_ns(parent, {{0, 100}}), 0);
}

TEST(Capacity, InterpolatesTheCrossingLogLinearly) {
  // Score 0.5 at 2000/s, 1.5 at 2500/s: the crossing is halfway in score,
  // so halfway between the rates on a log scale.
  const std::vector<ladder_step> steps = {
      {1600, 0.4, false}, {2000, 0.5, false}, {2500, 1.5, false}};
  const capacity_estimate c = interpolate_capacity(steps);
  EXPECT_EQ(c.bracket, 0);
  EXPECT_NEAR(c.rate, std::sqrt(2000.0 * 2500.0), 1e-6);
}

TEST(Capacity, FailedStepCountsAsScoreTwo) {
  const std::vector<ladder_step> steps = {{2000, 0.0, false},
                                          {2500, 0.1, true}};
  const capacity_estimate c = interpolate_capacity(steps);
  EXPECT_EQ(c.bracket, 0);
  EXPECT_NEAR(c.rate, std::exp(std::log(2000.0) + 0.5 * std::log(1.25)),
              1e-6);
}

TEST(Capacity, BisectionStepsNarrowTheBracket) {
  // Coarse climb fails at 9536; bisection passes 8529, fails 9019 and 8771.
  // The bracket is [8529, 8771], whatever order the steps came in.
  const std::vector<ladder_step> steps = {
      {7629, 0.5, false}, {9536, 1.1, false}, {8529, 0.8, false},
      {9019, 1.2, false}, {8771, 1.8, false}};
  const capacity_estimate c = interpolate_capacity(steps);
  EXPECT_EQ(c.bracket, 0);
  const double frac = (1.0 - 0.8) / (1.8 - 0.8);
  EXPECT_NEAR(c.rate,
              std::exp(std::log(8529.0) + frac * std::log(8771.0 / 8529.0)),
              1e-6);
}

TEST(Capacity, PassAboveTheSlowestFailureIsIgnored) {
  // A noisy pass above a failure does not widen the bracket.
  const std::vector<ladder_step> steps = {
      {2000, 0.5, false}, {2500, 1.5, false}, {3125, 0.9, false}};
  const capacity_estimate c = interpolate_capacity(steps);
  EXPECT_EQ(c.bracket, 0);
  EXPECT_NEAR(c.rate, std::sqrt(2000.0 * 2500.0), 1e-6);
}

TEST(Capacity, FirstStepFailing) {
  const capacity_estimate c = interpolate_capacity({{2000, 4.0, false}});
  EXPECT_EQ(c.bracket, -1);
  EXPECT_DOUBLE_EQ(c.rate, 500.0);
}

TEST(Capacity, EveryStepPassingExtrapolatesAtMostOneStep) {
  // Scores rise 0.5 -> 0.75: the trend crosses 1 one step later.
  const capacity_estimate c =
      interpolate_capacity({{2000, 0.5, false}, {2500, 0.75, false}});
  EXPECT_EQ(c.bracket, 1);
  EXPECT_NEAR(c.rate, 3125.0, 1e-6);
  // A flat trend is capped at one ladder factor past the last step.
  const capacity_estimate flat =
      interpolate_capacity({{2000, 0.5, false}, {2500, 0.5, false}});
  EXPECT_NEAR(flat.rate, 3125.0, 1e-6);
}

TEST(Capacity, StepPassRule) {
  EXPECT_TRUE(step_passes({2000, 1.0, false}));
  EXPECT_FALSE(step_passes({2000, 1.01, false}));
  EXPECT_FALSE(step_passes({2000, 0.1, true}));
}

}  // namespace
}  // namespace lhws_bench
