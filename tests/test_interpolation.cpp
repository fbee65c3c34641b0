#include "numerics/interpolation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gridsub::numerics {
namespace {

TEST(UniformGridInterpolant, ReproducesNodesExactly) {
  const std::vector<double> y{0.0, 1.0, 4.0, 9.0};
  UniformGridInterpolant interp(0.0, 2.0, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(interp(2.0 * static_cast<double>(i)), y[i]);
  }
}

TEST(UniformGridInterpolant, LinearBetweenNodes) {
  UniformGridInterpolant interp(0.0, 1.0, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(interp(0.25), 2.5);
  EXPECT_DOUBLE_EQ(interp(0.75), 7.5);
}

TEST(UniformGridInterpolant, ClampsOutsideTheGrid) {
  UniformGridInterpolant interp(5.0, 1.0, {2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(interp(0.0), 2.0);
  EXPECT_DOUBLE_EQ(interp(100.0), 4.0);
}

TEST(UniformGridInterpolant, NonZeroOrigin) {
  UniformGridInterpolant interp(10.0, 2.0, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(interp(11.0), 2.0);
}

TEST(UniformGridInterpolant, RejectsBadConstruction) {
  EXPECT_THROW(UniformGridInterpolant(0.0, 1.0, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(UniformGridInterpolant(0.0, 0.0, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(InverseMonotone, InvertsLinearTabulation) {
  // y(x) = x/10 on x in [0, 10].
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) y.push_back(static_cast<double>(i) / 10.0);
  EXPECT_NEAR(inverse_monotone(0.0, 1.0, y, 0.35), 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(inverse_monotone(0.0, 1.0, y, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(inverse_monotone(0.0, 1.0, y, 2.0), 10.0);
}

TEST(InverseMonotone, HandlesFlatSegments) {
  // Plateau between nodes 1 and 3: inversion lands at the left edge.
  const std::vector<double> y{0.0, 0.5, 0.5, 0.5, 1.0};
  const double x = inverse_monotone(0.0, 1.0, y, 0.5);
  EXPECT_GE(x, 0.9);
  EXPECT_LE(x, 1.1);
}

TEST(InverseMonotone, RoundTripsWithInterpolant) {
  const std::vector<double> y{0.0, 0.1, 0.3, 0.7, 1.0};
  UniformGridInterpolant interp(0.0, 1.0, y);
  for (double target : {0.05, 0.2, 0.5, 0.9}) {
    const double x = inverse_monotone(0.0, 1.0, y, target);
    EXPECT_NEAR(interp(x), target, 1e-10);
  }
}

}  // namespace
}  // namespace gridsub::numerics
