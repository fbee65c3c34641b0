// Workload `plan`: the planner user's path, on one thread.
//
// Inputs: 13 seeded probe traces spanning the paper's Table 1 regimes —
// the 12 weekly sets of traces::all_datasets() (808 or 2005 probes, rho
// 0.05 to 0.33, sigma_R 317 s to 1196 s) plus their 2007/08 union (8888
// probes, 2006-IX left out as make_union_trace does). Each week keeps its
// dataset's probe count, outlier ratio, mean and sigma_R below the timeout
// and latency floor. Even-numbered weeks draw a shifted log-normal bulk
// (heavy tail), odd-numbered weeks a shifted gamma bulk (exponential
// tail). Each trace's outlier count is exactly round(rho·probes) and its
// latencies are a stratified sample, so the seed moves every latency
// within its stratum and reorders the probes but leaves the regime — and
// the planner's work — nearly unchanged. (traces::make_trace draws the
// outlier count and the latencies freely; with it, the planner's work per
// trace moves by up to 2x from seed to seed: results/plan_make_trace.txt.)
//
// One op: traces::read_csv_file -> DiscretizedLatencyModel::from_trace at a
// 1 s step -> StrategyPlanner::recommend. One round plans all 13 traces.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cost.hpp"
#include "core/planner.hpp"
#include "model/discretized.hpp"
#include "reference.hpp"
#include "traces/datasets.hpp"
#include "traces/trace_io.hpp"

namespace perfbench {

namespace {

using namespace gridsub;

/// One input trace and the CSV file it is written to.
struct ProbeTrace {
  traces::Trace trace;
  std::string path;
};

/// Regularised lower incomplete gamma P(k, x) (series / continued
/// fraction, as in Numerical Recipes §6.2).
double gamma_p(double k, double x) {
  if (x <= 0.0) return 0.0;
  const double log_prefix = k * std::log(x) - x - std::lgamma(k);
  if (x < k + 1.0) {
    double term = 1.0 / k, sum = term;
    for (int n = 1; n < 500 && term > sum * 1e-15; ++n) {
      term *= x / (k + n);
      sum += term;
    }
    return sum * std::exp(log_prefix);
  }
  const double tiny = 1e-300;
  double b = x + 1.0 - k, c = 1.0 / tiny, d = 1.0 / b, h = d;
  for (int n = 1; n < 500; ++n) {
    const double an = -n * (n - k);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-15) break;
  }
  return 1.0 - std::exp(log_prefix) * h;
}

/// Inverse of a continuous CDF on [0, hi] by bisection.
template <typename Cdf>
double inverse_cdf(const Cdf& cdf, double u, double hi) {
  double lo = 0.0;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    (cdf(mid) < u ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

traces::Trace make_week(const traces::DatasetConfig& c, std::size_t index,
                        std::uint64_t seed) {
  std::mt19937_64 rng(mix_seed(seed, index));
  const auto outliers = static_cast<std::size_t>(
      std::llround(c.outlier_ratio * static_cast<double>(c.n_probes)));
  const std::size_t completed = c.n_probes - outliers;
  const double bulk_mean = c.target_mean - c.shift;

  // Stratified draw of the bulk above the latency floor: one uniform in
  // each of `completed` equal-probability strata of the bulk distribution
  // truncated at the timeout, mapped through its inverse CDF. The sample's
  // ECDF then stays within one stratum of the regime's distribution for
  // every seed. Log-normal for even weeks, gamma for odd ones, both with
  // the dataset's mean and sigma_R above the floor.
  const double cap = c.timeout - 1.0 - c.shift;
  const double cv2 =
      (c.target_stddev * c.target_stddev) / (bulk_mean * bulk_mean);
  std::function<double(double)> cdf;
  if (index % 2 == 0) {
    const double s2 = std::log1p(cv2);
    const double mu = std::log(bulk_mean) - 0.5 * s2;
    cdf = [mu, sd = std::sqrt(s2)](double x) {
      return x <= 0.0 ? 0.0
                      : 0.5 * std::erfc(-(std::log(x) - mu) /
                                        (sd * std::numbers::sqrt2));
    };
  } else {
    cdf = [k = 1.0 / cv2, theta = bulk_mean * cv2](double x) {
      return gamma_p(k, x / theta);
    };
  }
  const double mass = cdf(cap);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> lat(completed);
  for (std::size_t i = 0; i < completed; ++i) {
    const double u = (static_cast<double>(i) + unit(rng)) /
                     static_cast<double>(completed);
    lat[i] = c.shift + inverse_cdf(cdf, u * mass, cap);
  }
  std::shuffle(lat.begin(), lat.end(), rng);

  // Outliers take seeded positions among the probes; a probe is submitted
  // every 30 s.
  std::vector<char> is_outlier(c.n_probes, 0);
  std::fill_n(is_outlier.begin(), outliers, 1);
  std::shuffle(is_outlier.begin(), is_outlier.end(), rng);
  traces::Trace t(c.name, c.timeout);
  std::size_t next = 0;
  for (std::size_t i = 0; i < c.n_probes; ++i) {
    const double submit = 30.0 * static_cast<double>(i);
    if (is_outlier[i]) {
      t.add_outlier(submit);
    } else {
      t.add_completed(submit, lat[next++]);
    }
  }
  return t;
}

/// Setup of one round: generate every trace and write it as CSV.
std::vector<ProbeTrace> make_inputs(const RunOptions& options) {
  const std::vector<traces::DatasetConfig>& datasets = traces::all_datasets();
  std::vector<ProbeTrace> inputs;
  inputs.reserve(datasets.size() + 1);
  traces::Trace all("2007/08", datasets.front().timeout);
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    inputs.push_back({make_week(datasets[i], i, options.seed), ""});
    if (datasets[i].name != "2006-IX") all.append(inputs.back().trace);
  }
  inputs.push_back({std::move(all), ""});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i].path = options.workdir + "/plan-" + std::to_string(i) + ".csv";
    traces::write_csv_file(inputs[i].path, inputs[i].trace);
  }
  return inputs;
}

/// Candidates in StrategyPlanner::recommend's order: single, multiple
/// b = 2..max_b, delayed latency optimum, delayed cost optimum.
struct PlanOutput {
  std::vector<core::CostEvaluation> candidates;
  std::size_t grid_points = 0;
};

constexpr int kMaxB = 10;
/// At least 52 plans per run, so p80 has 10 plans beyond it.
constexpr std::size_t kMinRounds = 4;

PlanOutput plan_untraced(const std::string& path) {
  const traces::Trace trace = traces::read_csv_file(path);
  const auto model = model::DiscretizedLatencyModel::from_trace(trace, 1.0);
  const core::StrategyPlanner planner(model);
  core::PlannerOptions options;
  options.max_b = kMaxB;
  PlanOutput out;
  out.candidates = planner.recommend(options).candidates;
  out.grid_points = model.grid_size();
  return out;
}

/// The same calls recommend() makes, one span around each.
PlanOutput plan_traced(const std::string& path, std::uint64_t op) {
  const Span op_span("plan.op", op);
  traces::Trace trace;
  {
    const Span s("traces.read", op);
    trace = traces::read_csv_file(path);
  }
  std::unique_ptr<model::DiscretizedLatencyModel> model;
  {
    const Span s("model.fit", op);
    model = std::make_unique<model::DiscretizedLatencyModel>(
        model::DiscretizedLatencyModel::from_trace(trace, 1.0));
  }
  PlanOutput out;
  out.grid_points = model->grid_size();
  std::unique_ptr<core::CostModel> cost;
  {
    // The single-resubmission optimum is computed by the CostModel
    // constructor; evaluate_single() only reads it back.
    const Span s("core.multiple", op);
    cost = std::make_unique<core::CostModel>(*model);
    out.candidates.push_back(cost->evaluate_single());
    for (int b = 2; b <= kMaxB; ++b) {
      out.candidates.push_back(cost->evaluate_multiple(b));
    }
  }
  {
    const Span s("core.delayed_opt", op);
    const core::DelayedOptimum opt = cost->delayed().optimize();
    out.candidates.push_back(cost->evaluate_delayed(opt.t0, opt.t_inf));
  }
  {
    const Span s("core.delayed_cost", op);
    out.candidates.push_back(cost->optimize_delayed_cost());
  }
  return out;
}

bool same_candidates(const PlanOutput& a, const PlanOutput& b) {
  if (a.candidates.size() != b.candidates.size()) return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const auto& x = a.candidates[i];
    const auto& y = b.candidates[i];
    if (x.kind != y.kind || x.t0 != y.t0 || x.t_inf != y.t_inf ||
        x.b != y.b || x.expectation != y.expectation ||
        x.delta_cost != y.delta_cost) {
      return false;
    }
  }
  return true;
}

// Check tolerances. The planner works on F̃ sampled every 1 s and linearly
// interpolated, the references on the exact step ECDF: moving each jump by
// under one grid step changes the integrals by under 1 s, and F̃(t) by at
// most the jumps inside one step.
constexpr double kRelTol = 0.005;
constexpr double kAbsTol = 1.0;
constexpr double kMcSigmas = 5.0;
constexpr std::uint64_t kMcSamples = 100000;

bool within(double value, double ref) {
  return std::fabs(value - ref) <= kRelTol * std::fabs(ref) + kAbsTol;
}

/// Largest discrepancies seen by the checks, reported with the result.
struct CheckMargins {
  double eq_rel = 0.0;     ///< |E_J - eq.1/eq.3 at t_inf| / reference
  double min_rel = 0.0;    ///< (eq. at t_inf - brute-force min) / min
  double mc_sigmas = 0.0;  ///< |E_J - Monte Carlo| / standard error
};

void check_plan(const traces::Trace& t, const PlanOutput& out,
                std::uint64_t mc_seed, RunResult& result,
                CheckMargins& margins) {
  const EmpiricalReference ref(t.completed_latencies(), t.size());
  const std::string who = "plan " + t.name() + ": ";
  const auto& c = out.candidates;
  result.check(c.size() == static_cast<std::size_t>(kMaxB) + 2,
               who + "unexpected candidate count");
  if (c.size() != static_cast<std::size_t>(kMaxB) + 2) return;

  // Single (b = 1) and multiple submission against eq. 1 / eq. 3.
  for (int b = 1; b <= kMaxB; ++b) {
    const core::CostEvaluation& e = c[static_cast<std::size_t>(b - 1)];
    const std::string tag = who + "b=" + std::to_string(b) + ": ";
    const double at_t = ref.expectation(b, e.t_inf);
    const TimeoutMin best = ref.brute_force_min(b);
    margins.eq_rel =
        std::max(margins.eq_rel, std::fabs(e.expectation - at_t) / at_t);
    margins.min_rel = std::max(
        margins.min_rel, (at_t - best.expectation) / best.expectation);
    result.check(within(e.expectation, at_t),
                 tag + "E_J " + number(e.expectation) +
                     " disagrees with the reference " + number(at_t));
    result.check(within(at_t, best.expectation),
                 tag + "t_inf " + number(e.t_inf) +
                     " is not near the brute-force minimum at " +
                     number(best.t_inf));
    if (b > 1) {
      result.check(e.expectation <=
                       c[static_cast<std::size_t>(b - 2)].expectation *
                           (1.0 + 1e-12),
                   tag + "E_J increases with b");
    }
  }

  // Delayed candidates: feasibility and the Monte Carlo referee.
  for (std::size_t i = kMaxB; i < c.size(); ++i) {
    const core::CostEvaluation& e = c[i];
    const std::string tag =
        who + (i == kMaxB ? "delayed latency optimum: "
                          : "delayed cost optimum: ");
    const bool feasible = delayed_feasible(e.t0, e.t_inf);
    result.check(feasible, tag + "infeasible (t0, t_inf) = (" +
                               number(e.t0) + ", " + number(e.t_inf) + ")");
    if (!feasible) continue;
    const McEstimate mc = ref.delayed_monte_carlo(e.t0, e.t_inf, kMcSamples,
                                                  mix_seed(mc_seed, i));
    margins.mc_sigmas = std::max(
        margins.mc_sigmas, std::fabs(e.expectation - mc.mean) / mc.std_error);
    const double allowed = kMcSigmas * mc.std_error +
                           kRelTol * mc.mean + kAbsTol;
    result.check(std::fabs(e.expectation - mc.mean) <= allowed,
                 tag + "E_J " + number(e.expectation) +
                     " disagrees with Monte Carlo " + number(mc.mean) +
                     " +- " + number(mc.std_error));
  }
  result.check(c[kMaxB].expectation <=
                   c[0].expectation * (1.0 + kRelTol) + kAbsTol,
               who + "delayed latency optimum is worse than single "
                     "resubmission");
}

}  // namespace

RunResult run_plan(const RunOptions& options) {
  RunResult result;
  result.tail_quantile = 0.80;
  std::filesystem::create_directories(options.workdir);

  // Warm-up: one untimed plan of the largest week before timing starts.
  std::vector<ProbeTrace> inputs = make_inputs(options);
  (void)plan_untraced(inputs[0].path);

  std::vector<PlanOutput> first;  // round 1 outputs, checked once
  std::vector<double> round_s;
  std::uint64_t op_id = 0;
  const Clock::time_point begin = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const Clock::time_point setup_start = Clock::now();
    inputs = make_inputs(options);
    result.setup_s.push_back(seconds_since(setup_start));

    const Clock::time_point run_start = Clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Clock::time_point op_start = Clock::now();
      PlanOutput out = options.trace ? plan_traced(inputs[i].path, op_id)
                                     : plan_untraced(inputs[i].path);
      result.op_us.push_back(1e6 * seconds_since(op_start));
      ++op_id;
      ++result.attempted;
      if (round == 0) {
        first.push_back(std::move(out));
      } else {
        result.check(same_candidates(out, first[i]),
                     "plan " + inputs[i].trace.name() +
                         ": a later round planned differently");
      }
    }
    const double run = seconds_since(run_start);
    result.run_s.push_back(run);
    result.ops_per_s.push_back(static_cast<double>(inputs.size()) / run);
    round_s.push_back(seconds_since(setup_start));
    const double elapsed = seconds_since(begin);
    if (round + 1 >= kMinRounds &&
        elapsed + median(round_s) > options.seconds) {
      break;
    }
  }

  // Output checks, outside the timed phase.
  CheckMargins margins;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    check_plan(inputs[i].trace, first[i], mix_seed(options.seed, 1000 + i),
               result, margins);
  }
  // A traced run plans through its own spans around the calls recommend()
  // makes; recommend() itself must still give the same candidates.
  if (options.trace) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      result.check(same_candidates(plan_untraced(inputs[i].path), first[i]),
                   "plan " + inputs[i].trace.name() +
                       ": the traced calls and recommend() disagree");
    }
  }
  result.notes.push_back(
      "plan checks: max |E_J - eq.1/eq.3| " + number(100.0 * margins.eq_rel) +
      "%, max excess over the brute-force minimum " +
      number(100.0 * margins.min_rel) + "%, max |E_J - Monte Carlo| " +
      number(margins.mc_sigmas) + " SE");

  if (options.trace) {
    const auto totals = Tracer::instance().totals();
    double grid = 0.0;
    for (const PlanOutput& o : first) {
      grid += static_cast<double>(o.grid_points);
    }
    const LayerTotals& op = totals.at("plan.op");
    result.layer_base = "op time (plan.op spans)";
    result.layer_base_s = op.total_s;
    result.layers = {
        {"traces.read_us", self_us(totals, "traces.read"), "us"},
        {"model.fit_us", self_us(totals, "model.fit"), "us"},
        {"model.grid_points", grid / static_cast<double>(first.size()),
         "count"},
        {"core.multiple_us", self_us(totals, "core.multiple"), "us"},
        {"core.delayed_opt_us", self_us(totals, "core.delayed_opt"),
         "us"},
        {"core.delayed_cost_us", self_us(totals, "core.delayed_cost"),
         "us"},
        {"trace.coverage", 1.0 - op.self_s / op.total_s, "ratio"},
    };
  }
  std::string per_trace = "plan: median op ms per trace:";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<double> times;
    for (std::size_t j = i; j < result.op_us.size(); j += inputs.size()) {
      times.push_back(result.op_us[j]);
    }
    per_trace += " " + inputs[i].trace.name() + "=" +
                 std::to_string(static_cast<int>(median(times) / 1000.0));
  }
  result.notes.push_back(per_trace);
  result.notes.push_back("plan: " + std::to_string(inputs.size()) +
                         " traces per round, " +
                         std::to_string(result.run_s.size()) + " rounds");
  return result;
}

}  // namespace perfbench
