// Workload `crossweek`: the researcher's path, a reduced cross-week study.
//
// Four seeded scenario weeks, one per load shape of
// traces::replay_scenario_names() (stationary, diurnal, burst, outage), at
// time-averaged rates of 0.27, 0.30, 0.33 and 0.30 jobs/s on the
// egee_like grid. One round (the study):
//
//   fit     — per week, on the campaign engine: a probe campaign runs in
//             the DES over the whole replayed week, F̃ is fitted from the
//             probe trace at a 1 s step, and the strategies are tuned
//             (Δcost-optimal delayed (t0, t∞), the single-resubmission t∞,
//             and the latency-optimal multiple submission with b <= 3);
//   deploy  — per week, four policies run through exp::run_strategy_cell
//             on an exp::CampaignRunner: naive, delayed(prev),
//             multiple(prev) and delayed(own), 3 replications each; week 1
//             takes its "prev" parameters from week 4.
//
// One op is one deploy cell. Both campaigns run on an explicit pool of
// min(nproc, 4) threads.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/cost.hpp"
#include "exp/campaign.hpp"
#include "exp/experiment.hpp"
#include "model/discretized.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/probe_client.hpp"
#include "traces/scenarios.hpp"

namespace perfbench {

namespace {

using namespace gridsub;

constexpr double kRateFactor[] = {0.9, 1.0, 1.1, 1.0};
constexpr double kBaseRate = 0.30;
constexpr double kWarmUp = 6.0 * 3600.0;
constexpr double kNaiveTimeout = 10000.0;
constexpr int kMultipleBudget = 3;
constexpr std::size_t kReplications = 3;
/// At least 144 cells per run, so p90 has 14 cells beyond it.
constexpr std::size_t kMinRounds = 3;

struct Tuned {
  double t0 = 0.0;
  double t_inf = 0.0;
  double t_inf_single = 0.0;
  int b = 1;
  double t_inf_multiple = 0.0;
};

/// Per-week fit-stage observations for the traced run.
struct FitStats {
  double probe_s = 0.0;
  double events = 0.0;
  double grid_points = 0.0;
};

std::vector<exp::ScenarioCase> make_weeks(std::uint64_t seed,
                                          std::uint64_t op) {
  const std::vector<std::string> shapes = traces::replay_scenario_names();
  std::vector<exp::ScenarioCase> weeks;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Span s("traces.scenario", op);
    traces::ScenarioConfig scen;
    scen.base_rate = kBaseRate * kRateFactor[i % std::size(kRateFactor)];
    scen.seed = mix_seed(seed, 100 + i);
    exp::ScenarioCase sc;
    sc.label = shapes[i];
    sc.grid = sim::GridConfig::egee_like();
    sc.grid.background.arrival_rate = 0.0;
    sc.workload = std::make_shared<const traces::Workload>(
        traces::make_scenario(shapes[i], scen));
    weeks.push_back(std::move(sc));
  }
  return weeks;
}

Tuned fit_and_tune(const exp::ScenarioCase& week, std::uint64_t seed,
                   std::uint64_t op, FitStats& stats) {
  const Clock::time_point probe_start = Clock::now();
  traces::Trace trace;
  {
    const Span s("sim.probe", op);
    sim::GridConfig config = week.grid;
    config.seed = seed;
    sim::GridSimulation grid(config);
    grid.attach_replay(*week.workload, week.replay);
    grid.warm_up(kWarmUp);
    sim::ProbeCampaignConfig probe;
    probe.n_probes = 50000;  // probe until the week ends
    probe.concurrent = 10;
    probe.timeout = kNaiveTimeout;
    sim::ProbeClient probes(grid, probe, week.label + "-probes");
    probes.start();
    grid.simulator().run_until(week.workload->duration());
    stats.events = static_cast<double>(grid.simulator().processed_events());
    trace = probes.trace();
  }
  stats.probe_s = seconds_since(probe_start);
  std::unique_ptr<model::DiscretizedLatencyModel> model;
  {
    const Span s("model.fit", op);
    model = std::make_unique<model::DiscretizedLatencyModel>(
        model::DiscretizedLatencyModel::from_trace(trace, 1.0));
  }
  stats.grid_points = static_cast<double>(model->grid_size());
  const Span s("core.tune", op);
  const core::CostModel cost(*model);
  Tuned p;
  const core::CostEvaluation delayed = cost.optimize_delayed_cost();
  p.t0 = delayed.t0;
  p.t_inf = delayed.t_inf;
  p.t_inf_single = cost.baseline().t_inf;
  const core::CostEvaluation one = cost.evaluate_multiple(1);
  double best = one.expectation;
  p.t_inf_multiple = one.t_inf;
  for (int b = 2; b <= kMultipleBudget; ++b) {
    const core::CostEvaluation e = cost.evaluate_multiple(b);
    if (e.expectation < best) {
      best = e.expectation;
      p.b = b;
      p.t_inf_multiple = e.t_inf;
    }
  }
  return p;
}

sim::StrategySpec policy(std::size_t strategy, const Tuned& prev,
                         const Tuned& own) {
  sim::StrategySpec spec;
  switch (strategy) {
    case 0:  // naive: resubmit only at the outlier horizon
      spec.kind = core::StrategyKind::kSingleResubmission;
      spec.t_inf = kNaiveTimeout;
      break;
    case 1:  // delayed, tuned on the previous week
      spec.kind = core::StrategyKind::kDelayedResubmission;
      spec.t0 = prev.t0;
      spec.t_inf = prev.t_inf;
      break;
    case 2:  // multiple submission, tuned on the previous week
      spec.kind = core::StrategyKind::kMultipleSubmission;
      spec.b = prev.b;
      spec.t_inf = prev.t_inf_multiple;
      break;
    default:  // delayed, tuned on this week (the oracle)
      spec.kind = core::StrategyKind::kDelayedResubmission;
      spec.t0 = own.t0;
      spec.t_inf = own.t_inf;
  }
  return spec;
}

double metric(const exp::CellMetrics& m, const std::string& name) {
  for (const auto& [key, value] : m) {
    if (key == name) return value;
  }
  return NAN;
}

}  // namespace

RunResult run_crossweek(const RunOptions& options) {
  RunResult result;
  result.tail_quantile = 0.90;
  const std::size_t width =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  par::ThreadPool pool(width);
  exp::CampaignOptions campaign;
  campaign.pool = &pool;

  // Warm-up: one untimed deploy cell before timing starts.
  {
    const std::vector<exp::ScenarioCase> weeks = make_weeks(options.seed, 0);
    exp::ClientConfig clients;
    clients.warm_up = kWarmUp;
    sim::StrategySpec naive;
    naive.t_inf = kNaiveTimeout;
    (void)exp::run_strategy_cell(weeks[0], naive, clients, options.seed);
  }

  std::vector<double> round_s;
  std::vector<double> probe_s, events, grid_points, jobs_submitted, busy_frac;
  std::uint64_t op_base = 0;
  const Clock::time_point begin = Clock::now();
  for (std::size_t round = 0;; ++round) {
    // --- setup: scenario weeks and the campaign runner ---------------------
    const Clock::time_point setup_start = Clock::now();
    const std::vector<exp::ScenarioCase> weeks =
        make_weeks(options.seed, op_base);
    const std::size_t n_weeks = weeks.size();
    const exp::CampaignRunner runner(campaign);
    result.setup_s.push_back(seconds_since(setup_start));

    // --- timed phase: fit stage, then deploy campaign ----------------------
    const Clock::time_point run_start = Clock::now();
    exp::CampaignAxes fit_axes;
    fit_axes.name = "perfbench_crossweek_fit";
    for (const auto& w : weeks) fit_axes.scenario_labels.push_back(w.label);
    fit_axes.strategy_labels = {"fit+tune"};
    fit_axes.root_seed = mix_seed(options.seed, 200);
    std::vector<Tuned> tuned(n_weeks);
    std::vector<FitStats> fit_stats(n_weeks);
    (void)runner.run(fit_axes, [&](const exp::CellContext& ctx) {
      tuned[ctx.scenario] = fit_and_tune(weeks[ctx.scenario], ctx.seed,
                                         op_base, fit_stats[ctx.scenario]);
      return exp::CellMetrics{{"t0", tuned[ctx.scenario].t0}};
    });

    exp::CampaignAxes axes;
    axes.name = "perfbench_crossweek_deploy";
    for (const auto& w : weeks) axes.scenario_labels.push_back(w.label);
    axes.strategy_labels = {"naive", "delayed(prev)", "multiple(prev)",
                            "delayed(own)"};
    axes.replications = kReplications;
    axes.root_seed = mix_seed(options.seed, 300);
    exp::ClientConfig clients;
    clients.warm_up = kWarmUp;
    std::vector<double> cell_time(axes.cell_count(), 0.0);
    const Clock::time_point deploy_start = Clock::now();
    const exp::CampaignResult deployed =
        runner.run(axes, [&](const exp::CellContext& ctx) {
          const Span s("exp.cell", op_base + ctx.flat);
          const Clock::time_point cell_start = Clock::now();
          const std::size_t prev = (ctx.scenario + n_weeks - 1) % n_weeks;
          exp::CellMetrics m = exp::run_strategy_cell(
              weeks[ctx.scenario],
              policy(ctx.strategy, tuned[prev], tuned[ctx.scenario]), clients,
              ctx.seed);
          cell_time[ctx.flat] = seconds_since(cell_start);
          return m;
        });
    const double deploy_wall = seconds_since(deploy_start);
    const double run = seconds_since(run_start);
    result.run_s.push_back(run);
    result.ops_per_s.push_back(static_cast<double>(axes.cell_count()) / run);
    round_s.push_back(seconds_since(setup_start));

    // --- bookkeeping and checks (outside the timed phase) ------------------
    double cell_sum = 0.0;
    for (const double t : cell_time) {
      result.op_us.push_back(1e6 * t);
      cell_sum += t;
    }
    busy_frac.push_back(cell_sum /
                        (static_cast<double>(width) * deploy_wall));
    result.attempted += axes.cell_count();
    op_base += axes.cell_count();
    for (const FitStats& f : fit_stats) {
      probe_s.push_back(f.probe_s);
      events.push_back(f.events);
      grid_points.push_back(f.grid_points);
    }

    for (std::size_t w = 0; w < n_weeks; ++w) {
      const Tuned& p = tuned[w];
      const std::string who = "crossweek " + weeks[w].label + ": ";
      result.check(delayed_feasible(p.t0, p.t_inf),
                   who + "tuned delayed (t0, t_inf) infeasible");
      result.check(p.t_inf_single > 0.0 && p.t_inf_multiple > 0.0 &&
                       p.b >= 1 && p.b <= kMultipleBudget,
                   who + "tuned single/multiple parameters infeasible");
      result.check(
          deployed.mean(w, 1, "mean_J") < deployed.mean(w, 0, "mean_J"),
          who + "delayed(prev) mean J is not below naive");
    }
    double jobs = 0.0;
    for (const exp::CellResult& cell : deployed.cells()) {
      const double done = metric(cell.metrics, "tasks_done");
      const double submitted = metric(cell.metrics, "jobs_submitted");
      const double canceled = metric(cell.metrics, "jobs_canceled");
      result.check(done > 0.0, "crossweek cell " +
                                   std::to_string(cell.context.flat) +
                                   ": no task done");
      result.check(canceled <= submitted,
                   "crossweek cell " + std::to_string(cell.context.flat) +
                       ": more jobs canceled than submitted");
      jobs += submitted;
    }
    jobs_submitted.push_back(jobs /
                             static_cast<double>(deployed.cells().size()));

    const double elapsed = seconds_since(begin);
    if (round + 1 >= kMinRounds &&
        elapsed + median(round_s) > options.seconds) {
      break;
    }
  }

  if (options.trace) {
    const auto totals = Tracer::instance().totals();
    const double weeks = static_cast<double>(probe_s.size());
    double event_sum = 0.0, probe_sum = 0.0, grid_sum = 0.0;
    for (std::size_t i = 0; i < probe_s.size(); ++i) {
      event_sum += events[i];
      probe_sum += probe_s[i];
      grid_sum += grid_points[i];
    }
    double spanned = 0.0;  // pool-thread time inside layer spans
    for (const char* name :
         {"sim.probe", "model.fit", "core.tune", "exp.cell"}) {
      spanned += totals.at(name).total_s;
    }
    double run_sum = 0.0;
    for (const double r : result.run_s) run_sum += r;
    result.layer_base = "pool time of the timed phases (width x run_s)";
    result.layer_base_s = static_cast<double>(width) * run_sum;
    result.layers = {
        {"traces.scenario_us", self_us(totals, "traces.scenario"), "us"},
        {"sim.probe_us", self_us(totals, "sim.probe"), "us"},
        {"sim.events", event_sum / weeks, "count"},
        {"sim.events_per_s", event_sum / probe_sum, "1/s"},
        {"model.fit_us", self_us(totals, "model.fit"), "us"},
        {"model.grid_points", grid_sum / weeks, "count"},
        {"core.tune_us", self_us(totals, "core.tune"), "us"},
        {"exp.cell_us", self_us(totals, "exp.cell"), "us"},
        {"exp.jobs_submitted", median(jobs_submitted), "count"},
        {"parallel.busy_frac", median(busy_frac), "ratio"},
        {"parallel.pool_width", static_cast<double>(width), "count"},
        {"trace.coverage", spanned / result.layer_base_s, "ratio"},
    };
  }
  result.notes.push_back(
      "crossweek: 4 weeks x 4 policies x " + std::to_string(kReplications) +
      " replications per round, pool width " + std::to_string(width) + ", " +
      std::to_string(result.run_s.size()) + " rounds");
  return result;
}

}  // namespace perfbench
