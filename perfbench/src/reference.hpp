#pragma once

// Reference computations made apart from the library, on a trace's own
// empirical CDF with its outliers (a step function F̃ that saturates at
// 1 - rho). They share no code with gridsub's model/core/mc layers and run
// outside every timed phase.
//
//   eq. 1  E_J(t) = ∫₀ᵗ (1 - F̃(u)) du / F̃(t)          (single resubmission)
//   eq. 3  E_J(t) = ∫₀ᵗ (1 - F̃(u))^b du / (1 - (1 - F̃(t))^b)   (b copies)
//
// Both integrals are exact sums over the ECDF's jumps. Between jumps F̃ is
// flat, so E_J grows there: the minimum over t lies on a jump point, and
// scanning every jump point is a brute-force search that cannot miss it.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Minimum of a timeout-parameterised E_J.
struct TimeoutMin {
  double t_inf = 0.0;
  double expectation = 0.0;
};

/// Monte Carlo estimate with its standard error.
struct McEstimate {
  double mean = 0.0;
  double std_error = 0.0;
  std::uint64_t samples = 0;
};

class EmpiricalReference {
 public:
  /// `completed`: latencies of started probes (any order); `total`: all
  /// probes including outliers (>= completed.size()).
  EmpiricalReference(std::vector<double> completed, std::uint64_t total);

  /// F̃(t): share of all probes started by t (right-continuous).
  [[nodiscard]] double ftilde(double t) const;
  /// ∫₀ᵗ (1 - F̃(u))^b du, exact.
  [[nodiscard]] double survival_integral(int b, double t) const;
  /// Eq. 3 (eq. 1 for b = 1); +inf when nothing starts by t.
  [[nodiscard]] double expectation(int b, double t) const;
  /// Brute-force minimum of eq. 3 over every jump point of the ECDF.
  [[nodiscard]] TimeoutMin brute_force_min(int b) const;

  /// Seeded Monte Carlo referee for delayed resubmission at (t0, t_inf):
  /// copy k is submitted at k·t0 unless a copy started before, each copy
  /// draws its latency from the trace (an outlier never starts) and is
  /// cancelled if it has not started t_inf after its submission.
  [[nodiscard]] McEstimate delayed_monte_carlo(double t0, double t_inf,
                                               std::uint64_t samples,
                                               std::uint64_t seed) const;

 private:
  std::vector<double> sorted_;  ///< completed latencies, ascending
  double total_;
};

}  // namespace perfbench
