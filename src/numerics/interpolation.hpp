#pragma once

// Interpolation on tabulated functions.
//
// The strategy models cache prefix integrals of F̃ on the model's uniform
// grid; evaluating E_J at arbitrary timeouts requires linear interpolation
// between grid nodes.

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace gridsub::numerics {

/// Linear interpolation of samples y[i] = f(x0 + i*dx) on a uniform grid.
/// Values outside the grid clamp to the boundary samples.
class UniformGridInterpolant {
 public:
  UniformGridInterpolant() = default;

  /// Requires y.size() >= 2 and dx > 0.
  UniformGridInterpolant(double x0, double dx, std::vector<double> y);

  /// Defined here so the strategy models' prefix lookups inline.
  [[nodiscard]] double operator()(double x) const {
    if (y_.empty()) throw std::logic_error("UniformGridInterpolant: empty");
    const double s = (x - x0_) / dx_;
    if (s <= 0.0) return y_.front();
    const auto last = static_cast<double>(y_.size() - 1);
    if (s >= last) return y_.back();
    const auto i = static_cast<std::size_t>(s);
    const double frac = s - static_cast<double>(i);
    return y_[i] + frac * (y_[i + 1] - y_[i]);
  }

 private:
  double x0_ = 0.0;
  double dx_ = 1.0;
  std::vector<double> y_;
};

/// Given a non-decreasing tabulation y over uniform grid x0 + i*dx, returns
/// the smallest x with y(x) >= target (linear interpolation between nodes);
/// clamps to the grid ends. Used for quantiles of discretized CDFs.
double inverse_monotone(double x0, double dx, std::span<const double> y,
                        double target);

}  // namespace gridsub::numerics
