#include "core/delayed_resubmission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numerics/integration.hpp"
#include "numerics/kahan.hpp"
#include "numerics/optimize1d.hpp"
#include "numerics/optimize2d.hpp"

namespace gridsub::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Tolerance on the t∞ <= 2·t0 boundary (the formulas remain valid at
// equality; allow roundoff past it).
constexpr double kBoundaryEps = 1e-9;
}  // namespace

DelayedResubmission::DelayedResubmission(
    const model::DiscretizedLatencyModel& m)
    : model_(m), fgrid_(m.ftilde_grid()) {
  const double step = model_.step();
  std::vector<double> s(fgrid_.size());
  std::vector<double> us(fgrid_.size());
  for (std::size_t i = 0; i < fgrid_.size(); ++i) {
    s[i] = 1.0 - fgrid_[i];
    us[i] = model_.t_at(i) * s[i];
  }
  prefix_s_ = numerics::UniformGridInterpolant(
      0.0, step, numerics::cumulative_trapezoid(s, step));
  prefix_us_ = numerics::UniformGridInterpolant(
      0.0, step, numerics::cumulative_trapezoid(us, step));
}

bool DelayedResubmission::feasible(double t0, double t_inf) const {
  return t0 > 0.0 && t_inf > t0 &&
         t_inf <= 2.0 * t0 * (1.0 + kBoundaryEps) &&
         t_inf <= model_.horizon();
}

namespace {
/// Trapezoid panel count of a product-integral sweep over [0, length].
std::size_t sweep_panels(double length, double step) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(length / step)));
}

/// s(t) = 1 - F̃(t) as an indexed lerp over the tabulated F̃ grid, in
/// place of a virtual survival_at() call per sample of the tuning
/// objective's hot path. The arithmetic (t/step, same lerp form, then
/// 1 - F̃) is kept identical to DiscretizedLatencyModel::ftilde, so results
/// are bit-for-bit what the virtual path produced.
auto grid_survival(std::span<const double> fgrid, double step) {
  const double* fg = fgrid.data();
  const auto last_index = fgrid.size() - 1;
  const double last = static_cast<double>(last_index);
  return [=](double t) {
    if (t <= 0.0) return 1.0;
    const double s = t / step;
    if (s >= last) return 1.0 - fg[last_index];
    const auto i = static_cast<std::size_t>(s);
    const double frac = s - static_cast<double>(i);
    return 1.0 - (fg[i] + frac * (fg[i + 1] - fg[i]));
  };
}
}  // namespace

void DelayedResubmission::product_integrals(double t0, double length,
                                            double& plain,
                                            double& weighted) const {
  plain = 0.0;
  weighted = 0.0;
  if (!(length > 0.0)) return;
  const double step = model_.step();
  const auto n = sweep_panels(length, step);
  const double h = length / static_cast<double>(n);
  // A Nelder-Mead fit calls this hundreds of times, each a sweep of
  // ~length/step samples; u increases monotonically, making the grid
  // accesses a cache-friendly forward scan. RowSweep::exact_overlap
  // repeats the plain half of this loop at h = step: keep the two alike.
  const auto surv = grid_survival(fgrid_, step);
  numerics::KahanAccumulator acc_plain, acc_weighted;
  double prev_g = surv(t0) * surv(0.0);
  double prev_u = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    const double u = static_cast<double>(i) * h;
    const double g = surv(u + t0) * surv(u);
    acc_plain.add(0.5 * h * (prev_g + g));
    acc_weighted.add(0.5 * h * (prev_u * prev_g + u * g));
    prev_g = g;
    prev_u = u;
  }
  plain = acc_plain.value();
  weighted = acc_weighted.value();
}

bool DelayedResubmission::RowSweep::exact_overlap(double t0, double length,
                                                  double& plain) {
  const double step = d_.model_.step();
  const auto n = sweep_panels(length, step);
  if (length / static_cast<double>(n) != step) return false;
  const auto surv = grid_survival(d_.fgrid_, step);
  if (t0 != t0_) {
    t0_ = t0;
    prefix_.assign(1, 0.0);
    acc_.reset();
    prev_g_ = surv(t0) * surv(0.0);
  }
  while (prefix_.size() <= n) {
    const double u = static_cast<double>(prefix_.size()) * step;
    const double g = surv(u + t0) * surv(u);
    acc_.add(0.5 * step * (prev_g_ + g));
    prev_g_ = g;
    prefix_.push_back(acc_.value());
  }
  plain = prefix_[n];
  return true;
}

DelayedResubmission::CostTerms DelayedResubmission::RowSweep::cost_terms(
    double t0, double t_inf) {
  return d_.terms(t0, t_inf, this);
}

double DelayedResubmission::CostTerms::fleet_parallel_jobs() const {
  if (!std::isfinite(expectation) || !(expectation > 0.0)) return kInf;
  return job_seconds / expectation;
}

DelayedResubmission::CostTerms DelayedResubmission::terms(
    double t0, double t_inf, RowSweep* row) const {
  CostTerms c;
  if (!feasible(t0, t_inf)) return c;
  const double q = model_.survival_at(t_inf);
  const double p = 1.0 - q;
  if (!(p > 0.0)) return c;
  const double length = t_inf - t0;
  double plain = 0.0;
  if (row == nullptr || !row->exact_overlap(t0, length, plain)) {
    double weighted;
    product_integrals(t0, length, plain, weighted);
  }
  const double h_total = plain + q * (integral_s(t0) - integral_s(length));
  c.expectation = integral_s(t0) + h_total / p;
  // E[W] = E_J + the expected duplicated occupancy (header comment).
  if (std::isfinite(c.expectation)) c.job_seconds = c.expectation + plain / p;
  return c;
}

double DelayedResubmission::expectation(double t0, double t_inf) const {
  return terms(t0, t_inf, nullptr).expectation;
}

DelayedResubmission::CostTerms DelayedResubmission::cost_terms(
    double t0, double t_inf) const {
  return terms(t0, t_inf, nullptr);
}

double DelayedResubmission::second_moment(double t0, double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double q = model_.survival_at(t_inf);
  const double p = 1.0 - q;
  if (!(p > 0.0)) return kInf;
  const double length = t_inf - t0;
  double p0, p1;
  product_integrals(t0, length, p0, p1);
  const double h_total = p0 + q * (integral_s(t0) - integral_s(length));
  const double u_total = p1 + q * (integral_us(t0) - integral_us(length));
  return 2.0 * (integral_us(t0) + u_total / p + t0 * h_total / (p * p));
}

double DelayedResubmission::std_deviation(double t0, double t_inf) const {
  const double ej = expectation(t0, t_inf);
  if (!std::isfinite(ej)) return kInf;
  const double var = second_moment(t0, t_inf) - ej * ej;
  return std::sqrt(std::max(var, 0.0));
}

StrategyMetrics DelayedResubmission::evaluate(double t0,
                                              double t_inf) const {
  StrategyMetrics m;
  m.expectation = expectation(t0, t_inf);
  m.std_deviation = std_deviation(t0, t_inf);
  return m;
}

double DelayedResubmission::expectation_paper_eq5(double t0,
                                                  double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double f_inf = model_.ftilde(t_inf);
  if (!(f_inf > 0.0)) return kInf;
  const double length = t_inf - t0;
  const double step = model_.step();
  const auto quad = [&](double lo, double hi, auto&& fn) {
    if (!(hi > lo)) return 0.0;
    const auto n = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil((hi - lo) / step)) * 2);
    const double h = (hi - lo) / static_cast<double>(n);
    numerics::KahanAccumulator acc(0.5 * (fn(lo) + fn(hi)));
    for (std::size_t i = 1; i < n; ++i) {
      acc.add(fn(lo + static_cast<double>(i) * h));
    }
    return acc.value() * h;
  };
  const auto f = [&](double t) { return model_.density(t); };
  const double a_int = quad(0.0, t_inf, [&](double u) { return u * f(u); });
  const double b_int = quad(0.0, length, [&](double u) { return u * f(u); });
  const double c_int =
      quad(0.0, length, [&](double u) { return f(u + t0) * f(u); });
  const double d_int =
      quad(0.0, length, [&](double u) { return u * f(u + t0) * f(u); });
  const double f0 = model_.ftilde(t0);
  const double fl = model_.ftilde(length);
  return a_int / f_inf + f0 * b_int / f_inf + t0 / f_inf +
         t0 * fl / f_inf + t0 * f0 * fl / (f_inf * f_inf) - t0 + b_int -
         t0 * c_int / (f_inf * f_inf) - d_int / f_inf;
}

double DelayedResubmission::survival(double t, double t0,
                                     double t_inf) const {
  if (t <= 0.0) return 1.0;
  const auto n = static_cast<std::size_t>(t / t0);
  if (n == 0) return model_.survival_at(t);
  const double q = model_.survival_at(t_inf);
  const double a = t - static_cast<double>(n - 1) * t0;  // in [t0, 2 t0)
  const double f1 = model_.survival_at(std::min(a, t_inf));
  const double f2 = model_.survival_at(t - static_cast<double>(n) * t0);
  if (n == 1) return f1 * f2;
  return std::pow(q, static_cast<double>(n - 1)) * f1 * f2;
}

double DelayedResubmission::parallel_jobs_at(double l, double t0,
                                             double t_inf) {
  if (!(t0 > 0.0)) throw std::invalid_argument("parallel_jobs_at: t0 <= 0");
  if (!(l > 0.0)) return 1.0;
  const auto n = static_cast<std::size_t>(l / t0);
  numerics::KahanAccumulator occupancy;
  for (std::size_t k = 0; k <= n; ++k) {
    occupancy.add(std::min(l - static_cast<double>(k) * t0, t_inf));
  }
  return occupancy.value() / l;
}

double DelayedResubmission::parallel_jobs(double t0, double t_inf) const {
  const double ej = expectation(t0, t_inf);
  if (!std::isfinite(ej)) return kInf;
  return parallel_jobs_at(ej, t0, t_inf);
}

double DelayedResubmission::expected_parallel_jobs(double t0,
                                                   double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double q = model_.survival_at(t_inf);
  if (!(q < 1.0)) return kInf;
  // E[N∥(J)] = ∫ N∥(l) dF_J(l); integrate on the model grid until the
  // survival mass is exhausted.
  const double step = model_.step();
  numerics::KahanAccumulator acc;
  double s_prev = 1.0;
  double l = 0.0;
  constexpr double kTailCut = 1e-12;
  const double l_max = 1000.0 * t0;  // hard cap; geometric decay ends first
  while (s_prev > kTailCut && l < l_max) {
    const double l_next = l + step;
    const double s_next = survival(l_next, t0, t_inf);
    const double mass = s_prev - s_next;
    if (mass > 0.0) {
      acc.add(mass * parallel_jobs_at(0.5 * (l + l_next), t0, t_inf));
    }
    s_prev = s_next;
    l = l_next;
  }
  // Remaining tail mass behaves like the asymptote N∥ -> t∞/t0.
  acc.add(s_prev * (t_inf / t0));
  return acc.value();
}

double DelayedResubmission::expected_job_seconds(double t0,
                                                 double t_inf) const {
  return cost_terms(t0, t_inf).job_seconds;
}

double DelayedResubmission::fleet_parallel_jobs(double t0,
                                                double t_inf) const {
  return cost_terms(t0, t_inf).fleet_parallel_jobs();
}

double DelayedResubmission::expected_submissions(double t0,
                                                 double t_inf) const {
  if (!feasible(t0, t_inf)) return kInf;
  const double q = model_.survival_at(t_inf);
  if (!(q < 1.0)) return kInf;
  numerics::KahanAccumulator acc(1.0);
  double n = 1.0;
  for (;;) {
    const double s = survival(n * t0, t0, t_inf);
    if (s < 1e-14 || n > 1e7) break;
    acc.add(s);
    n += 1.0;
  }
  return acc.value();
}

DelayedOptimum DelayedResubmission::pack_optimum(double t0,
                                                 double t_inf) const {
  DelayedOptimum opt;
  opt.t0 = t0;
  opt.t_inf = t_inf;
  opt.metrics = evaluate(t0, t_inf);
  opt.n_parallel = parallel_jobs(t0, t_inf);
  return opt;
}

DelayedOptimum DelayedResubmission::optimize(double t0_max) const {
  const double step = model_.step();
  const double lo = 4.0 * step;
  const double hi =
      (t0_max > 0.0) ? t0_max : 0.5 * model_.horizon();
  if (!(hi > lo)) {
    throw std::invalid_argument("DelayedResubmission::optimize: bad bounds");
  }
  // Parameterize by (t0, ratio) so the feasible region is a rectangle.
  const auto objective = [this](double t0, double ratio) {
    return expectation(t0, ratio * t0);
  };
  const auto res = numerics::grid_then_nelder_mead(
      objective, lo, hi, 1.02, 2.0, 96, 40, 1e-10);
  // Nelder-Mead may step a hair past the ratio box (up to ~1e-9); clamp
  // so the optimum meets t∞ <= 2·t0 exactly, not only within
  // feasible()'s roundoff slack.
  const double t0 = res.x;
  const double t_inf = std::min(std::min(res.y, 2.0) * t0, model_.horizon());
  return pack_optimum(t0, t_inf);
}

DelayedOptimum DelayedResubmission::optimize_with_ratio(
    double ratio, double t0_max) const {
  if (!(ratio > 1.0) || !(ratio <= 2.0 + kBoundaryEps)) {
    throw std::invalid_argument(
        "optimize_with_ratio: ratio must be in (1, 2]");
  }
  const double step = model_.step();
  const double lo = 4.0 * step;
  const double hi = std::min((t0_max > 0.0) ? t0_max : 0.5 * model_.horizon(),
                             model_.horizon() / ratio);
  if (!(hi > lo)) {
    throw std::invalid_argument("optimize_with_ratio: bad bounds");
  }
  const auto res = numerics::scan_then_refine(
      [this, ratio](double t0) { return expectation(t0, ratio * t0); }, lo,
      hi, 384, 1e-6);
  return pack_optimum(res.x, ratio * res.x);
}

}  // namespace gridsub::core
