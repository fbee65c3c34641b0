// Cross-week tuning, end-to-end in simulation (the paper's §7 / Table 6
// claim driven through the DES instead of the analytic model alone).
//
// 12 synthetic "scenario weeks" stand in for the paper's 12 EGEE trace
// weeks: each borrows a paper dataset's label, cycles through the
// non-stationary load shapes (stationary/diurnal/burst/outage) and scales
// its arrival rate by the week's Table 1 latency regime, so consecutive
// weeks genuinely differ. For every week N the full practical pipeline
// runs inside the simulator:
//
//   1. fit   — a probe campaign (paper §3.2) measures week N's latency
//              distribution under its replayed workload; F̃ is fitted from
//              the collected trace;
//   2. tune  — (t0, t∞) of delayed resubmission, the single-resubmission
//              t∞, and the multiple-submission b are optimized on the
//              fitted model;
//   3. apply — week N+1 replays its own workload while strategy clients
//              run (a) naive submission, (b) week N's tuned parameters,
//              and (c) week N+1's own tuned parameters (the unknowable
//              oracle), ≥16 replications per cell on the campaign engine.
//
// Reported: the tuned-vs-naive E_J gap (what tuning buys) and the
// week-ahead transfer penalty tuned(N) vs tuned(N+1) on week N+1 (what
// tuning on stale data costs) — the paper's claim is that the first is
// large and the second is small.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cost.hpp"
#include "exp/experiment.hpp"
#include "model/discretized.hpp"
#include "report/table.hpp"
#include "sim/probe_client.hpp"
#include "stats/rng.hpp"
#include "traces/datasets.hpp"
#include "traces/scenarios.hpp"

namespace {

using namespace gridsub;

constexpr std::uint64_t kRootSeed = 20090611;
constexpr double kBaseRate = 0.30;  // ~74% utilization at factor 1.0
constexpr double kWarmUp = 6.0 * 3600.0;
constexpr double kNaiveTimeout = 10000.0;  // the paper's outlier horizon
/// Parallel-copy budget when tuning multiple submission (the planner's
/// kMinLatency objective): E_J always improves with more copies, so the
/// tuned b rides the budget and what transfers week to week is its
/// latency-optimal timeout.
constexpr int kMultipleBudget = 3;

/// Parameters tuned on one week's fitted latency model.
struct TunedParams {
  double t0 = 0.0;
  double t_inf = 0.0;        // delayed strategy
  double t_inf_single = 0.0;
  int b = 1;
  double t_inf_multiple = 0.0;
  double rho = 0.0;    // fitted outlier mass
  double probes = 0.0;
};

/// The 12 scenario weeks: paper labels, cycled load shapes, rates scaled
/// by each week's Table 1 latency regime (heavier weeks are busier).
std::vector<exp::ScenarioCase> make_weeks() {
  const auto& datasets = traces::all_datasets();
  double mean_regime = 0.0;
  for (const auto& d : datasets) mean_regime += d.target_mean;
  mean_regime /= static_cast<double>(datasets.size());

  const auto shapes = traces::replay_scenario_names();
  std::vector<exp::ScenarioCase> weeks;
  weeks.reserve(datasets.size());
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const double factor = std::clamp(
        datasets[i].target_mean / mean_regime, 0.85, 1.15);
    traces::ScenarioConfig scen;
    scen.base_rate = kBaseRate * factor;
    std::uint64_t s = kRootSeed ^ (0xC0FFEEull * (i + 1));
    scen.seed = stats::splitmix64(s);
    auto sc = bench::replay_scenario(shapes[i % shapes.size()], scen);
    sc.label = datasets[i].name;
    weeks.push_back(std::move(sc));
  }
  return weeks;
}

/// Stage 1+2 for one week: probe its replayed grid, fit F̃, tune.
TunedParams fit_and_tune(const exp::ScenarioCase& week, std::uint64_t seed) {
  sim::GridConfig config = week.grid;
  config.seed = seed;
  sim::GridSimulation grid(config);
  grid.attach_replay(*week.workload, week.replay);
  grid.warm_up(kWarmUp);

  sim::ProbeCampaignConfig probe;
  probe.n_probes = 50000;  // effectively "probe until the week ends"
  probe.concurrent = 10;
  probe.timeout = kNaiveTimeout;
  sim::ProbeClient probes(grid, probe, week.label + "-probes");
  probes.start();
  grid.simulator().run_until(week.workload->duration());

  const auto model =
      model::DiscretizedLatencyModel::from_trace(probes.trace(), 1.0);
  const core::CostModel cost(model);

  TunedParams p;
  const auto delayed = cost.optimize_delayed_cost();
  p.t0 = delayed.t0;
  p.t_inf = delayed.t_inf;
  p.t_inf_single = cost.baseline().t_inf;
  const auto single_copy = cost.evaluate_multiple(1);
  double best_ej = single_copy.expectation;
  p.t_inf_multiple = single_copy.t_inf;
  for (int b = 2; b <= kMultipleBudget; ++b) {
    const auto e = cost.evaluate_multiple(b);
    if (e.expectation < best_ej) {
      best_ej = e.expectation;
      p.b = b;
      p.t_inf_multiple = e.t_inf;
    }
  }
  p.rho = model.outlier_ratio();
  p.probes = static_cast<double>(probes.trace().size());
  return p;
}

}  // namespace

int main() {
  const std::size_t reps = bench::quick_mode() ? 4 : 16;
  bench::print_header(
      "crossweek_replay",
      "paper §7 / Table 6 end-to-end: fit + tune on week N, deploy on "
      "week N+1, all in simulation",
      "12 scenario weeks x {naive, tuned(prev), multiple(prev), "
      "tuned(own)} x " + std::to_string(reps) +
          " replications on the campaign engine");

  const std::vector<exp::ScenarioCase> weeks = make_weeks();
  const std::size_t n_weeks = weeks.size();

  // ---- Stage 1+2: per-week probe campaign -> F̃ fit -> tuned params ----
  // The fit evaluator is pure in the cell context: every parameter the
  // evaluation campaign needs travels in the stage metrics, so the stage
  // checkpoints/resumes like any campaign and sibling shard processes
  // load the published .stage file instead of re-probing 12 weeks.
  exp::CampaignAxes fit_axes;
  fit_axes.name = "crossweek_fit";
  fit_axes.scenario_axis = "week";
  fit_axes.strategy_axis = "stage";
  for (const auto& w : weeks) fit_axes.scenario_labels.push_back(w.label);
  fit_axes.strategy_labels = {"fit+tune"};
  fit_axes.root_seed = kRootSeed;
  // The stage identity names the inputs the fit depends on: the week
  // roster plus the probe/tuning constants. Changing any of them retires
  // a previously published stage instead of silently reusing it.
  std::string fit_identity = "weeks=";
  for (const auto& w : weeks) {
    fit_identity += w.label + ":" + w.workload->name() + ",";
  }
  fit_identity += ";base_rate=" + std::to_string(kBaseRate) +
                  ";budget=" + std::to_string(kMultipleBudget);
  const exp::StageResult fit = bench::run_stage_campaign(
      fit_axes,
      [&](const exp::CellContext& ctx) {
        const TunedParams p = fit_and_tune(weeks[ctx.scenario], ctx.seed);
        return exp::CellMetrics{{"probes", p.probes}, {"rho", p.rho},
                                {"t0", p.t0},         {"t_inf", p.t_inf},
                                {"t_inf_single", p.t_inf_single},
                                {"b", static_cast<double>(p.b)},
                                {"t_inf_multiple", p.t_inf_multiple}};
      },
      fit_identity);
  std::vector<TunedParams> tuned(n_weeks);
  for (const exp::CellResult& cell : fit.result.cells()) {
    TunedParams& p = tuned[cell.context.scenario];
    p.t0 = bench::cell_metric(cell, "t0");
    p.t_inf = bench::cell_metric(cell, "t_inf");
    p.t_inf_single = bench::cell_metric(cell, "t_inf_single");
    p.b = static_cast<int>(bench::cell_metric(cell, "b"));
    p.t_inf_multiple = bench::cell_metric(cell, "t_inf_multiple");
    p.rho = bench::cell_metric(cell, "rho");
    p.probes = bench::cell_metric(cell, "probes");
  }

  report::Table tune_table({"week", "shape", "rate (1/s)", "probes", "rho",
                            "tuned t0", "tuned t_inf", "tuned b"});
  for (std::size_t i = 0; i < n_weeks; ++i) {
    const auto stats = weeks[i].workload->stats();
    tune_table.row()
        .cell(weeks[i].label)
        .cell(weeks[i].workload->name())
        .cell(stats.mean_rate, 3)
        .cell(static_cast<long long>(tuned[i].probes))
        .cell(tuned[i].rho, 3)
        .cell(tuned[i].t0, 0)
        .cell(tuned[i].t_inf, 0)
        .cell(static_cast<long long>(tuned[i].b));
  }
  std::cout << "per-week probe-fitted models and tuned parameters:\n";
  tune_table.print(std::cout);
  std::cout << "\n";

  // ---- Stage 3: deploy on the *next* week, in simulation --------------
  // Strategy axis per target week: naive submission, last week's tuned
  // parameters (the deployable policy), and the week's own tuned optimum
  // (the unknowable oracle the penalty is measured against). Week 1's
  // "previous" wraps to the last week so the matrix stays rectangular.
  exp::CampaignAxes eval_axes;
  eval_axes.name = "crossweek_eval";
  eval_axes.scenario_axis = "week";
  eval_axes.strategy_axis = "policy";
  for (const auto& w : weeks) eval_axes.scenario_labels.push_back(w.label);
  eval_axes.strategy_labels = {"naive", "delayed(prev)", "multiple(prev)",
                               "delayed(own)"};
  eval_axes.replications = reps;
  eval_axes.root_seed = kRootSeed + 1;

  exp::ClientConfig clients;
  clients.warm_up = kWarmUp;

  const auto result =
      bench::run_campaign(eval_axes, [&](const exp::CellContext& ctx) {
        const std::size_t prev = (ctx.scenario + n_weeks - 1) % n_weeks;
        sim::StrategySpec spec;
        switch (ctx.strategy) {
          case 0:  // naive: resubmit only at the outlier horizon
            spec.kind = core::StrategyKind::kSingleResubmission;
            spec.t_inf = kNaiveTimeout;
            break;
          case 1:  // tuned on last week, deployed this week
            spec.kind = core::StrategyKind::kDelayedResubmission;
            spec.t0 = tuned[prev].t0;
            spec.t_inf = tuned[prev].t_inf;
            break;
          case 2:  // multiple submission tuned on last week
            spec.kind = core::StrategyKind::kMultipleSubmission;
            spec.b = tuned[prev].b;
            spec.t_inf = tuned[prev].t_inf_multiple;
            break;
          default:  // oracle: this week's own tuned parameters
            spec.kind = core::StrategyKind::kDelayedResubmission;
            spec.t0 = tuned[ctx.scenario].t0;
            spec.t_inf = tuned[ctx.scenario].t_inf;
        }
        return exp::run_strategy_cell(weeks[ctx.scenario], spec, clients,
                                      ctx.seed);
      });
  if (!result) return 0;  // shard mode: cells are on disk

  report::Table table({"week", "naive J", "delayed(prev) J", "+/-",
                       "multiple(prev) J", "delayed(own) J",
                       "gain vs naive", "transfer penalty"});
  double gain_sum = 0.0, penalty_sum = 0.0, penalty_max = 0.0;
  for (std::size_t w = 0; w < n_weeks; ++w) {
    const double naive_j = result->mean(w, 0, "mean_J");
    const double prev_j = result->mean(w, 1, "mean_J");
    const double multi_j = result->mean(w, 2, "mean_J");
    const double own_j = result->mean(w, 3, "mean_J");
    const double gain = naive_j > 0.0 ? 1.0 - prev_j / naive_j : 0.0;
    const double penalty = own_j > 0.0 ? prev_j / own_j - 1.0 : 0.0;
    gain_sum += gain;
    penalty_sum += penalty;
    penalty_max = std::max(penalty_max, penalty);
    table.row()
        .cell(weeks[w].label)
        .cell(naive_j, 1)
        .cell(prev_j, 1)
        .cell(result->sem(w, 1, "mean_J"), 1)
        .cell(multi_j, 1)
        .cell(own_j, 1)
        .percent(gain)
        .percent(penalty);
  }
  std::cout << "deployed on week N (params fitted on week N-1; week "
            << weeks.front().label << " wraps to " << weeks.back().label
            << "):\n";
  table.print(std::cout);

  const auto n = static_cast<double>(n_weeks);
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "\nsummary: mean tuned-vs-naive E_J gain %.1f%%, mean "
                "week-ahead transfer penalty %.1f%% (max %.1f%%).\n",
                100.0 * gain_sum / n, 100.0 * penalty_sum / n,
                100.0 * penalty_max);
  std::cout << summary;
  std::cout << "takeaway: tuning on last week's probes captures most of the "
               "achievable E_J reduction even though the load shape and "
               "rate change week to week — the paper's week-ahead tuning "
               "claim, reproduced end-to-end in the DES instead of on the "
               "analytic model.\n";
  return 0;
}
