#pragma once

// Delayed-resubmission strategy (paper §6) — the paper's novel contribution.
//
// Job 1 is submitted at t = 0. If it has not started by t0, a copy is
// submitted *without* cancelling job 1; job 1 is canceled at t∞. The
// pattern iterates with period t0 until some copy starts. The constraint
// 0 < t0 < t∞ <= 2·t0 keeps at most two copies in flight.
//
// Implementation notes (see docs/reproducing.md, "A note on eq. 5"):
//
// * The primary evaluator uses the exact survival form. With
//   q = 1 - F̃(t∞), s(x) = 1 - F̃(x) and s_cap(x) = s(min(x, t∞)), the
//   survival of the total latency J on t ∈ [n·t0, (n+1)·t0), n >= 1 is
//     S(t) = q^(n-1) · s_cap(t - (n-1)·t0) · s(t - n·t0),
//   (and S(t) = s(t) on [0, t0)), giving closed geometric-series forms
//     E_J    = ∫₀^{t0} s + H / (1-q)
//     E[J²]  = 2 [ ∫₀^{t0} u·s(u) du + U/(1-q) + t0·H/(1-q)² ]
//   with Φ(u) = s_cap(u + t0)·s(u),  H = ∫₀^{t0} Φ,  U = ∫₀^{t0} u·Φ(u) du.
//   Only F̃ is needed — no density estimate.
//
// * The paper's eq. 5 (density form) is also implemented, as
//   expectation_paper_eq5(), and cross-checked against the survival form
//   and Monte Carlo in the test suite.
//
// * N∥: the paper's case-by-case §6.1 formulas collapse to
//     N∥(l) = ( Σ_{k=0}^{⌊l/t0⌋} min(l - k·t0, t∞) ) / l,
//   which reproduces every printed case and the t∞/t0 asymptote. The
//   paper evaluates N∥ at l = E_J (parallel_jobs()); the distribution-
//   averaged E[N∥(J)] is provided as expected_parallel_jobs().

#include <limits>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "model/discretized.hpp"
#include "numerics/interpolation.hpp"
#include "numerics/kahan.hpp"

namespace gridsub::core {

class DelayedResubmission {
 public:
  /// E_J and the expected job-seconds E[W] at one (t0, t∞), both from one
  /// sweep of the overlap integral ∫₀^{t∞-t0} s(u+t0)·s(u) du. Both are
  /// +inf if the point is infeasible or q == 1.
  struct CostTerms {
    double expectation = std::numeric_limits<double>::infinity();
    double job_seconds = std::numeric_limits<double>::infinity();
    /// E[W]/E_J, as fleet_parallel_jobs().
    [[nodiscard]] double fleet_parallel_jobs() const;
  };

  /// cost_terms() for many t∞ at one t0, bit-identical to the per-point
  /// call but sharing one trapezoid sweep per t0 row. The per-point sweep
  /// samples u = i·h with h = length/n, n = max(2, ⌈length/step⌉); where
  /// h == step that is a prefix of the row's sweep at h = step, with the
  /// same Kahan adds in the same order, so the row's running value after
  /// n adds is the point's integral bit for bit. Any other point (n
  /// forced up to 2, or a length that is not a whole number of steps)
  /// falls back to its own sweep. The row restarts whenever t0 changes
  /// and is extended lazily, so queries in any order are exact. Not
  /// thread-safe: one per caller, on the caller's stack.
  class RowSweep {
   public:
    /// Keeps a reference to `d` (must outlive this object).
    explicit RowSweep(const DelayedResubmission& d) : d_(d) {}
    [[nodiscard]] CostTerms cost_terms(double t0, double t_inf);

   private:
    friend class DelayedResubmission;
    /// The overlap integral over [0, length] at t0, if it lies on the
    /// row's h = step lattice; false sends the caller to its own sweep.
    bool exact_overlap(double t0, double length, double& plain);

    const DelayedResubmission& d_;
    double t0_ = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> prefix_;  ///< prefix_[i]: running value after i adds
    numerics::KahanAccumulator acc_;
    double prev_g_ = 0.0;
  };

  /// Keeps a reference to `m` (must outlive this object).
  explicit DelayedResubmission(const model::DiscretizedLatencyModel& m);

  /// Feasibility: 0 < t0 < t∞ <= 2·t0 and t∞ <= horizon.
  [[nodiscard]] bool feasible(double t0, double t_inf) const;

  /// E_J(t0, t∞) via the survival form (+inf if infeasible or q == 1).
  [[nodiscard]] double expectation(double t0, double t_inf) const;

  /// E_J and E[W] at (t0, t∞) from one sweep (see CostTerms).
  [[nodiscard]] CostTerms cost_terms(double t0, double t_inf) const;

  /// E[J²](t0, t∞).
  [[nodiscard]] double second_moment(double t0, double t_inf) const;

  [[nodiscard]] double std_deviation(double t0, double t_inf) const;

  [[nodiscard]] StrategyMetrics evaluate(double t0, double t_inf) const;

  /// The paper's eq. 5 evaluated by numerical quadrature with the model's
  /// density estimate. Kept for fidelity & cross-validation.
  [[nodiscard]] double expectation_paper_eq5(double t0, double t_inf) const;

  /// Survival P(J > t) of the total latency.
  [[nodiscard]] double survival(double t, double t0, double t_inf) const;

  /// N∥ evaluated at latency l (paper §6.1); N∥(l<=0) := 1.
  [[nodiscard]] static double parallel_jobs_at(double l, double t0,
                                               double t_inf);

  /// Paper's measure: N∥ at l = E_J(t0, t∞).
  [[nodiscard]] double parallel_jobs(double t0, double t_inf) const;

  /// Distribution-averaged E[N∥(J)] (extension; integrates over S).
  [[nodiscard]] double expected_parallel_jobs(double t0, double t_inf) const;

  /// Expected total job-seconds consumed per task. From the survival form,
  ///   E[W] = E_J + (1/(1-q)) · ∫₀^{t∞-t0} s(u+t0)·s(u) du,
  /// i.e. the expected latency plus the expected duplicated occupancy.
  /// This is the quantity an administrator bills; N∥(E_J)·E_J (the paper's
  /// accounting) underestimates it by Jensen's inequality.
  [[nodiscard]] double expected_job_seconds(double t0, double t_inf) const;

  /// Fleet-level average parallelism E[W]/E[J] — the ratio-of-sums load
  /// measure matched by mc::McResult::aggregate_parallel.
  [[nodiscard]] double fleet_parallel_jobs(double t0, double t_inf) const;

  /// Expected number of copies submitted until one starts:
  /// E[⌊J/t0⌋ + 1] = Σ_{n>=0} P(J > n·t0).
  [[nodiscard]] double expected_submissions(double t0, double t_inf) const;

  /// Global minimization of E_J over the feasible triangle, parameterized
  /// as (t0, ratio = t∞/t0) with ratio in (1, 2]. `t0_max` < 0 selects
  /// horizon/2.
  [[nodiscard]] DelayedOptimum optimize(double t0_max = -1.0) const;

  /// Minimization with the ratio t∞/t0 imposed (paper §6.2 / Table 3).
  [[nodiscard]] DelayedOptimum optimize_with_ratio(double ratio,
                                                   double t0_max = -1.0) const;

  [[nodiscard]] const model::DiscretizedLatencyModel& latency_model() const {
    return model_;
  }

 private:
  /// Interpolated prefix integrals ∫₀^t s and ∫₀^t u·s(u) du.
  [[nodiscard]] double integral_s(double t) const { return prefix_s_(t); }
  [[nodiscard]] double integral_us(double t) const { return prefix_us_(t); }
  /// ∫₀^L s(u+t0)·s(u) du and ∫₀^L u·s(u+t0)·s(u) du (trapezoid).
  void product_integrals(double t0, double length, double& plain,
                         double& weighted) const;
  /// The E_J and E[W] formulas on the overlap integral, which comes from
  /// `row` when it holds the point exactly and from a sweep otherwise
  /// (`row` may be null).
  [[nodiscard]] CostTerms terms(double t0, double t_inf,
                                RowSweep* row) const;
  [[nodiscard]] DelayedOptimum pack_optimum(double t0, double t_inf) const;

  const model::DiscretizedLatencyModel& model_;
  /// The model's tabulated F̃ grid, captured once so product_integrals —
  /// the tuning-objective hot path — sweeps it by index without virtual
  /// ftilde() dispatch (bit-identical arithmetic; see the .cpp).
  std::span<const double> fgrid_;
  numerics::UniformGridInterpolant prefix_s_;   ///< ∫ (1 - F̃)
  numerics::UniformGridInterpolant prefix_us_;  ///< ∫ u (1 - F̃(u)) du
};

}  // namespace gridsub::core
