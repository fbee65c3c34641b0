// Shifted and Truncated wrappers.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "stats/exponential.hpp"
#include "stats/lognormal.hpp"
#include "stats/shifted.hpp"
#include "stats/truncated.hpp"
#include "stats/uniform.hpp"

namespace gridsub::stats {
namespace {

TEST(ShiftedDist, TranslatesAllQuantities) {
  const Shifted s(std::make_unique<Exponential>(0.01), 100.0);
  const Exponential e(0.01);
  EXPECT_DOUBLE_EQ(s.mean(), e.mean() + 100.0);
  EXPECT_DOUBLE_EQ(s.variance(), e.variance());
  EXPECT_DOUBLE_EQ(s.cdf(150.0), e.cdf(50.0));
  EXPECT_DOUBLE_EQ(s.pdf(150.0), e.pdf(50.0));
  EXPECT_DOUBLE_EQ(s.quantile(0.5), e.quantile(0.5) + 100.0);
  EXPECT_DOUBLE_EQ(s.support_lower(), 100.0);
}

TEST(ShiftedDist, NothingBelowTheFloor) {
  const Shifted s(std::make_unique<LogNormal>(5.0, 1.0), 60.0);
  EXPECT_DOUBLE_EQ(s.cdf(59.9), 0.0);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(s.sample(rng), 60.0);
}

TEST(TruncatedDist, CdfSpansZeroToOneOnTheBand) {
  const Truncated t(std::make_unique<Exponential>(0.01), 0.0, 200.0);
  EXPECT_DOUBLE_EQ(t.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.cdf(200.0), 1.0);
  EXPECT_GT(t.cdf(100.0), 0.0);
  EXPECT_LT(t.cdf(100.0), 1.0);
}

TEST(TruncatedDist, MatchesConditionalProbability) {
  const Exponential e(0.01);
  const Truncated t(e.clone(), 0.0, 200.0);
  const double x = 80.0;
  EXPECT_NEAR(t.cdf(x), e.cdf(x) / e.cdf(200.0), 1e-12);
}

TEST(TruncatedDist, MeanViaQuadratureMatchesClosedForm) {
  // Uniform(0, 10) truncated to [2, 6] is Uniform(2, 6): mean 4, var 4/3.
  const Truncated t(std::make_unique<UniformDist>(0.0, 10.0), 2.0, 6.0);
  EXPECT_NEAR(t.mean(), 4.0, 1e-6);
  EXPECT_NEAR(t.variance(), 4.0 / 3.0, 1e-6);
}

TEST(TruncatedDist, SamplesStayInsideTheBand) {
  const Truncated t(std::make_unique<LogNormal>(6.0, 1.5), 100.0, 5000.0);
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const double x = t.sample(rng);
    EXPECT_GE(x, 100.0);
    EXPECT_LE(x, 5000.0);
  }
}

TEST(TruncatedDist, RejectsZeroMassBand) {
  EXPECT_THROW(Truncated(std::make_unique<UniformDist>(0.0, 1.0), 5.0, 6.0),
               std::invalid_argument);
  EXPECT_THROW(Truncated(std::make_unique<UniformDist>(0.0, 1.0), 0.5, 0.5),
               std::invalid_argument);
}

TEST(Wrappers, ComposeShiftedTruncated) {
  // Shift then truncate: the composition used by the dataset calibration.
  auto bulk = std::make_unique<Shifted>(
      std::make_unique<LogNormal>(5.5, 1.0), 80.0);
  const Truncated t(std::move(bulk), 80.0, 10000.0);
  EXPECT_GE(t.quantile(0.001), 80.0);
  EXPECT_LE(t.quantile(0.999), 10000.0);
  EXPECT_NEAR(t.cdf(t.quantile(0.4)), 0.4, 1e-7);
}

}  // namespace
}  // namespace gridsub::stats
