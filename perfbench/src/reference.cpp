#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

EmpiricalReference::EmpiricalReference(std::vector<double> completed,
                                       std::uint64_t total)
    : sorted_(std::move(completed)), total_(static_cast<double>(total)) {
  if (sorted_.empty() || total < sorted_.size()) {
    throw std::invalid_argument("EmpiricalReference: bad sample");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalReference::ftilde(double t) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), t);
  return static_cast<double>(it - sorted_.begin()) / total_;
}

double EmpiricalReference::survival_integral(int b, double t) const {
  // Sum over the flat pieces [x_{j-1}, x_j) on which F̃ = j-1 / total.
  double sum = 0.0;
  double prev = 0.0;
  std::size_t j = 0;
  for (; j < sorted_.size() && sorted_[j] <= t; ++j) {
    const double s = 1.0 - static_cast<double>(j) / total_;
    sum += (sorted_[j] - prev) * std::pow(s, b);
    prev = sorted_[j];
  }
  const double s = 1.0 - static_cast<double>(j) / total_;
  return sum + (t - prev) * std::pow(s, b);
}

double EmpiricalReference::expectation(int b, double t) const {
  const double p = 1.0 - std::pow(1.0 - ftilde(t), b);
  if (!(p > 0.0)) return kInf;
  return survival_integral(b, t) / p;
}

TimeoutMin EmpiricalReference::brute_force_min(int b) const {
  TimeoutMin best{0.0, kInf};
  double integral = 0.0;
  double prev = 0.0;
  for (std::size_t j = 0; j < sorted_.size(); ++j) {
    integral += (sorted_[j] - prev) *
                std::pow(1.0 - static_cast<double>(j) / total_, b);
    prev = sorted_[j];
    // Evaluate after the last of tied latencies, where F̃ has jumped.
    if (j + 1 < sorted_.size() && sorted_[j + 1] == sorted_[j]) continue;
    const double f = static_cast<double>(j + 1) / total_;
    const double ej = integral / (1.0 - std::pow(1.0 - f, b));
    if (ej < best.expectation) best = {sorted_[j], ej};
  }
  return best;
}

McEstimate EmpiricalReference::delayed_monte_carlo(
    double t0, double t_inf, std::uint64_t samples,
    std::uint64_t seed) const {
  if (!(t0 > 0.0) || !(t_inf > t0) || samples < 2) {
    throw std::invalid_argument("delayed_monte_carlo: bad parameters");
  }
  std::mt19937_64 rng(seed);
  const auto n = static_cast<std::uint64_t>(total_);
  std::uniform_int_distribution<std::uint64_t> pick(0, n - 1);
  const auto draw = [&]() {
    const std::uint64_t i = pick(rng);
    return i < sorted_.size() ? sorted_[i] : kInf;
  };
  double mean = 0.0;
  double m2 = 0.0;
  for (std::uint64_t i = 0; i < samples; ++i) {
    double j_total = kInf;
    for (std::uint64_t k = 0;; ++k) {
      const double submit = static_cast<double>(k) * t0;
      if (!(submit < j_total)) break;  // a copy started: no more copies
      const double latency = draw();
      if (latency <= t_inf) j_total = std::min(j_total, submit + latency);
    }
    const double delta = j_total - mean;
    mean += delta / static_cast<double>(i + 1);
    m2 += delta * (j_total - mean);
  }
  const double var = m2 / static_cast<double>(samples - 1);
  return {mean, std::sqrt(var / static_cast<double>(samples)), samples};
}

std::vector<std::string> reference_selftest() {
  // Three probes: latencies 10 s and 20 s, and one outlier. By hand:
  //   eq. 1  E_J(10) = 10 / (1/3) = 30
  //          E_J(15) = (10 + 5·2/3) / (1/3) = 40
  //          E_J(20) = (10 + 10·2/3) / (2/3) = 25        -> minimum
  //   eq. 3, b = 2: E_J(10) = 10 / (1 - 4/9) = 18
  //          E_J(20) = (10 + 10·4/9) / (1 - 1/9) = 16.25  -> minimum
  //   delayed (t0, t_inf) = (15, 20): copy 0 starts at 10 or 20 with
  //   probability 1/3 each; otherwise the process restarts at t0 = 15:
  //   E = 10/3 + 20/3 + (15 + E)/3, so E = 22.5.
  std::vector<std::string> failures;
  const EmpiricalReference ref({20.0, 10.0}, 3);
  const auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  if (!near(ref.expectation(1, 10.0), 30.0)) {
    failures.push_back("selftest: eq.1 at t=10 is not 30");
  }
  if (!near(ref.expectation(1, 20.0), 25.0)) {
    failures.push_back("selftest: eq.1 at t=20 is not 25");
  }
  if (!near(ref.expectation(1, 15.0), 40.0)) {
    failures.push_back("selftest: eq.1 at t=15 is not 40");
  }
  const TimeoutMin single = ref.brute_force_min(1);
  if (!near(single.t_inf, 20.0) || !near(single.expectation, 25.0)) {
    failures.push_back("selftest: brute-force eq.1 minimum is not (20, 25)");
  }
  if (!near(ref.expectation(2, 10.0), 18.0) ||
      !near(ref.expectation(2, 20.0), 16.25)) {
    failures.push_back("selftest: eq.3 (b=2) is not 18 / 16.25");
  }
  const TimeoutMin multi = ref.brute_force_min(2);
  if (!near(multi.t_inf, 20.0) || !near(multi.expectation, 16.25)) {
    failures.push_back("selftest: brute-force eq.3 minimum is not (20, 16.25)");
  }
  const McEstimate mc = ref.delayed_monte_carlo(15.0, 20.0, 200000, 7);
  if (std::fabs(mc.mean - 22.5) > 4.0 * mc.std_error) {
    failures.push_back("selftest: delayed Monte Carlo " +
                       std::to_string(mc.mean) + " is not 22.5 +- 4 SE");
  }
  return failures;
}

}  // namespace perfbench
