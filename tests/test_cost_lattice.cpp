// The Δcost lattice scan shares one trapezoid sweep per t0 row
// (DelayedResubmission::RowSweep). That is a pure speed-up: every output
// must be bit-identical to scoring each lattice point with its own sweep.
// The references below are the per-point loops, written against the
// public per-point API (expectation(), fleet_parallel_jobs()).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "test_util.hpp"
#include "traces/datasets.hpp"

namespace gridsub::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

CostEvaluation reference_evaluate(const CostModel& cost, double t0,
                                  double t_inf) {
  const DelayedResubmission& d = cost.delayed();
  CostEvaluation e;
  e.kind = StrategyKind::kDelayedResubmission;
  e.t0 = t0;
  e.t_inf = t_inf;
  e.expectation = d.expectation(t0, t_inf);
  if (!std::isfinite(e.expectation)) {
    e.n_parallel = e.delta_cost = kInf;
    e.n_parallel_fleet = e.delta_cost_fleet = kInf;
    return e;
  }
  e.n_parallel =
      DelayedResubmission::parallel_jobs_at(e.expectation, t0, t_inf);
  e.delta_cost = cost.delta_cost(e.n_parallel, e.expectation);
  e.n_parallel_fleet = d.fleet_parallel_jobs(t0, t_inf);
  e.delta_cost_fleet = cost.delta_cost(e.n_parallel_fleet, e.expectation);
  return e;
}

CostEvaluation reference_optimum(const CostModel& cost, double t0_lo,
                                 double t0_hi, CostDefinition definition) {
  const auto& m = cost.latency_model();
  const DelayedResubmission& d = cost.delayed();
  const double lo = (t0_lo > 0.0) ? t0_lo : std::max(16.0, 4.0 * m.step());
  const double hi =
      (t0_hi > 0.0) ? t0_hi
                    : std::min(0.5 * m.horizon(),
                               4.0 * cost.baseline().metrics.expectation);
  const auto score = [&](double t0, double t_inf) {
    if (!d.feasible(t0, t_inf)) return kInf;
    const double ej = d.expectation(t0, t_inf);
    if (!std::isfinite(ej)) return kInf;
    const double n_par =
        definition == CostDefinition::kFleet
            ? d.fleet_parallel_jobs(t0, t_inf)
            : DelayedResubmission::parallel_jobs_at(ej, t0, t_inf);
    return cost.delta_cost(n_par, ej);
  };
  constexpr double kCoarse = 8.0;
  double best_t0 = 0.0, best_tinf = 0.0, best = kInf;
  for (double t0 = std::ceil(lo); t0 <= hi; t0 += kCoarse) {
    const double tinf_hi = std::min(2.0 * t0, m.horizon());
    for (double t_inf = t0 + 1.0; t_inf <= tinf_hi; t_inf += kCoarse) {
      const double v = score(t0, t_inf);
      if (v < best) {
        best = v;
        best_t0 = t0;
        best_tinf = t_inf;
      }
    }
  }
  const double r = kCoarse + 2.0;
  for (double t0 = std::max(std::ceil(lo), best_t0 - r);
       t0 <= std::min(hi, best_t0 + r); t0 += 1.0) {
    for (double t_inf = std::max(t0 + 1.0, best_tinf - r);
         t_inf <= std::min({2.0 * t0, m.horizon(), best_tinf + r});
         t_inf += 1.0) {
      const double v = score(t0, t_inf);
      if (v < best) {
        best = v;
        best_t0 = t0;
        best_tinf = t_inf;
      }
    }
  }
  return reference_evaluate(cost, best_t0, best_tinf);
}

StabilityReport reference_stability(const CostModel& cost, double t0,
                                    double t_inf, int radius) {
  StabilityReport rep;
  rep.base_delta_cost = reference_evaluate(cost, t0, t_inf).delta_cost;
  rep.max_delta_cost = rep.base_delta_cost;
  for (int d0 = -radius; d0 <= radius; ++d0) {
    for (int di = -radius; di <= radius; ++di) {
      const double p0 = t0 + d0;
      const double pi = t_inf + di;
      if (!cost.delayed().feasible(p0, pi)) continue;
      const double v = reference_evaluate(cost, p0, pi).delta_cost;
      if (std::isfinite(v)) {
        rep.max_delta_cost = std::max(rep.max_delta_cost, v);
      }
    }
  }
  rep.max_rel_diff =
      (rep.max_delta_cost - rep.base_delta_cost) / rep.base_delta_cost;
  return rep;
}

void expect_identical(const CostEvaluation& a, const CostEvaluation& b,
                      const std::string& what) {
  EXPECT_EQ(a.kind, b.kind) << what;
  EXPECT_EQ(bits(a.t0), bits(b.t0)) << what << " t0 " << a.t0 << " " << b.t0;
  EXPECT_EQ(bits(a.t_inf), bits(b.t_inf))
      << what << " t_inf " << a.t_inf << " " << b.t_inf;
  EXPECT_EQ(bits(a.expectation), bits(b.expectation)) << what;
  EXPECT_EQ(bits(a.n_parallel), bits(b.n_parallel)) << what;
  EXPECT_EQ(bits(a.delta_cost), bits(b.delta_cost)) << what;
  EXPECT_EQ(bits(a.n_parallel_fleet), bits(b.n_parallel_fleet)) << what;
  EXPECT_EQ(bits(a.delta_cost_fleet), bits(b.delta_cost_fleet)) << what;
}

/// A reseeded, smaller draw of a Table 1 week.
traces::Trace seeded_trace(const std::string& name, std::uint64_t seed) {
  traces::DatasetConfig config = traces::dataset_by_name(name);
  config.seed = seed;
  config.n_probes = 400;
  return traces::make_trace(config);
}

TEST(CostLattice, OptimumMatchesPerPointScanOnSeededTraces) {
  // Step 20 sends most lattice lengths to the per-point fallback; 0.5
  // puts every integer length on the row.
  const traces::Trace traces[] = {seeded_trace("2007-37", 11),
                                  seeded_trace("2007-38", 12)};
  for (const traces::Trace& trace : traces) {
    for (const double step : {1.0, 2.0, 0.5, 20.0}) {
      const auto m = model::DiscretizedLatencyModel::from_trace(trace, step);
      const CostModel cost(m);
      for (const auto def :
           {CostDefinition::kPaperPoint, CostDefinition::kFleet}) {
        const std::string what =
            "step " + std::to_string(step) +
            (def == CostDefinition::kFleet ? " fleet" : " paper");
        expect_identical(cost.optimize_delayed_cost(-1.0, 640.0, def),
                         reference_optimum(cost, -1.0, 640.0, def), what);
      }
    }
  }
}

TEST(CostLattice, OptimumMatchesPerPointScanWithDefaultBounds) {
  const auto m = testutil::discretize(
      testutil::make_heavy_model(0.05, 1500.0), 1.0);
  const CostModel cost(m);
  for (const auto def :
       {CostDefinition::kPaperPoint, CostDefinition::kFleet}) {
    expect_identical(cost.optimize_delayed_cost(-1.0, -1.0, def),
                     reference_optimum(cost, -1.0, -1.0, def), "defaults");
  }
}

TEST(CostLattice, StabilityAndEvaluateMatchPerPoint) {
  const traces::Trace trace = seeded_trace("2007-37", 11);
  for (const double step : {1.0, 0.5, 20.0}) {
    const auto m = model::DiscretizedLatencyModel::from_trace(trace, step);
    const CostModel cost(m);
    const CostEvaluation opt = cost.optimize_delayed_cost(-1.0, 640.0);
    // The optimum, an off-lattice point, and one at the t∞ = 2·t0 edge
    // whose neighbourhood is partly infeasible.
    const double points[][2] = {
        {opt.t0, opt.t_inf}, {200.5, 333.25}, {150.0, 300.0}};
    for (const auto& p : points) {
      const std::string what = "step " + std::to_string(step) + " at (" +
                               std::to_string(p[0]) + ", " +
                               std::to_string(p[1]) + ")";
      expect_identical(cost.evaluate_delayed(p[0], p[1]),
                       reference_evaluate(cost, p[0], p[1]), what);
      const StabilityReport got = cost.stability(p[0], p[1], 5);
      const StabilityReport want = reference_stability(cost, p[0], p[1], 5);
      EXPECT_EQ(bits(got.base_delta_cost), bits(want.base_delta_cost))
          << what;
      EXPECT_EQ(bits(got.max_delta_cost), bits(want.max_delta_cost)) << what;
      EXPECT_EQ(bits(got.max_rel_diff), bits(want.max_rel_diff)) << what;
    }
  }
}

TEST(CostLattice, RowTermsMatchPerPointIncludingFallbacks) {
  // Lengths 1 (n forced up to 2 panels at step 1), whole and fractional
  // multiples of the step, queried in ascending then descending t∞ so the
  // row is both extended and re-read.
  const auto trace = seeded_trace("2007-38", 12);
  for (const double step : {1.0, 0.5, 3.0, 20.0}) {
    const auto m = model::DiscretizedLatencyModel::from_trace(trace, step);
    const DelayedResubmission d(m);
    DelayedResubmission::RowSweep row(d);
    for (const double t0 : {97.0, 240.0, 610.5}) {
      std::vector<double> t_infs;
      for (double len = 1.0; len <= t0; len += 1.0) {
        t_infs.push_back(t0 + len);
      }
      t_infs.push_back(t0 + 0.25);
      t_infs.push_back(2.0 * t0);
      t_infs.push_back(2.0 * t0 + 1.0);  // infeasible
      std::vector<double> descending(t_infs.rbegin(), t_infs.rend());
      for (const auto* order : {&t_infs, &descending}) {
        for (const double t_inf : *order) {
          const auto terms = row.cost_terms(t0, t_inf);
          EXPECT_EQ(bits(terms.expectation), bits(d.expectation(t0, t_inf)))
              << "step " << step << " t0 " << t0 << " t_inf " << t_inf;
          EXPECT_EQ(bits(terms.job_seconds),
                    bits(d.expected_job_seconds(t0, t_inf)))
              << "step " << step << " t0 " << t0 << " t_inf " << t_inf;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gridsub::core
