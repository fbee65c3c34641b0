// Table 6: cross-week transfer of (t0, t∞) — each week's Δcost-optimal
// parameters evaluated on every other week, with the "week before" column
// (the paper's practical-implementation argument: estimating the optimum
// from last week's traces costs only a few percent).
//
// Both stages run on the campaign engine: a (week × tune) campaign
// optimizes each week's parameters concurrently, then a (target week ×
// source week) campaign scores every transfer cell.

#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/cost.hpp"
#include "exp/campaign.hpp"
#include "report/table.hpp"

int main() {
  using namespace gridsub;
  bench::print_header("table6_cross_week",
                      "Table 6 (cross-week parameter transfer)");

  // The paper uses the 6 weeks 2007-51..2008-03 plus the 2007/08 union.
  const std::vector<std::string> weeks = {"2007-51", "2007-52", "2007-53",
                                          "2008-01", "2008-02", "2008-03",
                                          "2007/08"};
  // Stage 1: per-week Δcost optimization on the campaign engine, with its
  // output persisted as a stage checkpoint: the tuned (t0, t∞) travel in
  // the stage metrics, so a killed run resumes mid-tune and sibling shard
  // processes load the published stage instead of re-optimizing 7 weeks.
  exp::CampaignAxes tune_axes;
  tune_axes.name = "table6_tune";
  tune_axes.scenario_axis = "week";
  tune_axes.strategy_axis = "stage";
  tune_axes.scenario_labels = weeks;
  tune_axes.strategy_labels = {"tune"};
  std::string tune_identity = "datasets=";
  for (const auto& w : weeks) tune_identity += w + ",";
  tune_identity += ";step=" + std::to_string(bench::kStep);
  const exp::StageResult tuned = bench::run_stage_campaign(
      tune_axes,
      [&](const exp::CellContext& ctx) {
        const auto model = bench::load_model(weeks[ctx.scenario]);
        const core::CostModel cost(model);
        const core::CostEvaluation opt = cost.optimize_delayed_cost();
        return exp::CellMetrics{{"t0", opt.t0},
                                {"t_inf", opt.t_inf},
                                {"E_J", opt.expectation},
                                {"d_cost", opt.delta_cost}};
      },
      tune_identity);

  // Tuned parameters come from the stage metrics; the target-week cost
  // models are deterministic functions of the dataset names, rebuilt here
  // once per process (cheap next to the optimization the stage skips).
  std::vector<core::CostEvaluation> opt(weeks.size());
  for (const exp::CellResult& cell : tuned.result.cells()) {
    core::CostEvaluation& o = opt[cell.context.scenario];
    o.t0 = bench::cell_metric(cell, "t0");
    o.t_inf = bench::cell_metric(cell, "t_inf");
    o.expectation = bench::cell_metric(cell, "E_J");
    o.delta_cost = bench::cell_metric(cell, "d_cost");
  }
  std::vector<std::unique_ptr<core::CostModel>> cost(weeks.size());
  std::vector<std::unique_ptr<model::DiscretizedLatencyModel>> models(
      weeks.size());
  for (std::size_t w = 0; w < weeks.size(); ++w) {
    models[w] = std::make_unique<model::DiscretizedLatencyModel>(
        bench::load_model(weeks[w]));
    cost[w] = std::make_unique<core::CostModel>(*models[w]);
  }

  // Stage 2: the full transfer matrix — source week's parameters scored on
  // the target week's model, streamed straight into fold aggregates.
  exp::CampaignAxes transfer_axes;
  transfer_axes.name = "table6_transfer";
  transfer_axes.scenario_axis = "evaluated on";
  transfer_axes.strategy_axis = "params from";
  transfer_axes.scenario_labels = weeks;
  transfer_axes.strategy_labels = weeks;
  const auto transfer = bench::run_campaign(
      transfer_axes, [&](const exp::CellContext& ctx) {
        const core::CostEvaluation& p = opt[ctx.strategy];
        const auto e = cost[ctx.scenario]->evaluate_delayed(p.t0, p.t_inf);
        return exp::CellMetrics{{"t0", p.t0},
                                {"t_inf", p.t_inf},
                                {"E_J", e.expectation},
                                {"d_cost", e.delta_cost}};
      });
  if (!transfer) return 0;  // shard mode: cells are on disk

  for (std::size_t target = 0; target < weeks.size(); ++target) {
    std::cout << "evaluated on " << weeks[target] << ":\n";
    report::Table table({"params from", "t0", "t_inf", "E_J", "d_cost"});
    const double own = transfer->mean(target, target, "d_cost");
    double max_diff = 0.0, prev_diff = std::nan("");
    for (std::size_t source = 0; source < weeks.size(); ++source) {
      const double d_cost = transfer->mean(target, source, "d_cost");
      table.row()
          .cell(weeks[source] + (source == target ? " (own)" : ""))
          .cell(transfer->mean(target, source, "t0"), 0)
          .cell(transfer->mean(target, source, "t_inf"), 0)
          .cell(report::seconds(transfer->mean(target, source, "E_J")))
          .cell(d_cost, 3);
      max_diff = std::max(max_diff, (d_cost - own) / own);
      if (target > 0 && source + 1 == target) {
        prev_diff = (d_cost - own) / own;
      }
    }
    table.print(std::cout);
    std::cout << "  max diff vs own optimum: " << 100.0 * max_diff << "%";
    if (!std::isnan(prev_diff)) {
      std::cout << " | diff using previous week's params: "
                << 100.0 * prev_diff << "%";
    }
    std::cout << "\n\n";
  }
  std::cout << "paper shape check: transfer penalties stay within ~10-15% "
               "(the paper reports max 13%, <= 6% from the week before).\n";
  return 0;
}
