#include "exp/fold.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/campaign.hpp"
#include "parallel/thread_pool.hpp"

namespace gridsub::exp {
namespace {

CampaignAxes small_axes(std::size_t scenarios = 2, std::size_t strategies = 2,
                        std::size_t reps = 3) {
  CampaignAxes axes;
  axes.name = "fold_test";
  for (std::size_t i = 0; i < scenarios; ++i) {
    axes.scenario_labels.push_back("sc" + std::to_string(i));
  }
  for (std::size_t i = 0; i < strategies; ++i) {
    axes.strategy_labels.push_back("st" + std::to_string(i));
  }
  axes.replications = reps;
  axes.root_seed = 7;
  return axes;
}

CellResult make_cell(const CampaignAxes& axes, std::size_t flat,
                     CellMetrics metrics) {
  CellResult cell;
  cell.context = axes.cell(flat);
  cell.metrics = std::move(metrics);
  return cell;
}

TEST(MomentFold, MatchesNaiveOnTameData) {
  MomentFold fold;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  double naive = 0.0;
  for (const double x : xs) {
    fold.add(x);
    naive += x;
  }
  EXPECT_EQ(fold.count(), xs.size());
  EXPECT_DOUBLE_EQ(fold.mean(), naive / 4.0);
  // Sample sem of {1,2,3,4}: sqrt(5/3)/2.
  EXPECT_NEAR(fold.sem(), std::sqrt(5.0 / 3.0) / 2.0, 1e-15);
  EXPECT_DOUBLE_EQ(fold.min(), 1.0);
  EXPECT_DOUBLE_EQ(fold.max(), 4.0);
}

TEST(MomentFold, CompensationSurvivesAdversarialMagnitudeSpread) {
  // Naive left-to-right summation annihilates the small term: 1e16 + 1
  // rounds back to 1e16, so (1e16 + 1) - 1e16 == 0 in double. The
  // compensated fold keeps the lost low-order bits.
  MomentFold fold;
  double naive = 0.0;
  for (const double x : {1e16, 1.0, -1e16}) {
    fold.add(x);
    naive += x;
  }
  EXPECT_DOUBLE_EQ(naive, 0.0);  // demonstrates the naive failure mode
  EXPECT_DOUBLE_EQ(fold.mean() * 3.0, 1.0);

  // A longer adversarial mix: many tiny terms under a huge alternating
  // carrier. The carrier cancels exactly; the tiny terms must survive.
  MomentFold fine;
  double expected = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double carrier = (i % 2 == 0) ? 1e15 : -1e15;
    fine.add(carrier);
    fine.add(1e-3);
    expected += 1e-3;
  }
  EXPECT_NEAR(fine.mean() * 2000.0, expected, 1e-9);
}

TEST(MomentFold, WelfordSemMatchesTwoPass) {
  // Spread values around a large offset: the textbook one-pass
  // sum-of-squares formula loses all significance here; Welford must not.
  std::vector<double> xs;
  const double offset = 1e9;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(offset + static_cast<double>(i % 7) - 3.0);
  }
  MomentFold fold;
  for (const double x : xs) fold.add(x);

  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - mean) * (x - mean);
  const double n = static_cast<double>(xs.size());
  const double two_pass_sem = std::sqrt(m2 / (n - 1.0) / n);

  // Welford carries a few ULPs of the *offset* into M2 (deviations are
  // ~1e-9 of the values here), so match to 1e-7 relative — still eight
  // orders tighter than the textbook sum-of-squares, which loses every
  // significant digit at this offset:
  double sq = 0.0, lin = 0.0;
  for (const double x : xs) {
    sq += x * x;
    lin += x;
  }
  const double naive_var = (sq - lin * lin / n) / (n - 1.0);
  const double true_var = m2 / (n - 1.0);
  EXPECT_GT(std::abs(naive_var - true_var), 0.1 * true_var);

  EXPECT_NEAR(fold.sem(), two_pass_sem, two_pass_sem * 1e-7);
}

TEST(MomentFold, DegenerateCounts) {
  MomentFold fold;
  EXPECT_EQ(fold.count(), 0u);
  EXPECT_DOUBLE_EQ(fold.mean(), 0.0);
  EXPECT_DOUBLE_EQ(fold.sem(), 0.0);
  fold.add(7.5);
  EXPECT_DOUBLE_EQ(fold.mean(), 7.5);
  EXPECT_DOUBLE_EQ(fold.sem(), 0.0);  // n < 2: exactly zero, not NaN
  fold.reset();
  EXPECT_EQ(fold.count(), 0u);
  EXPECT_DOUBLE_EQ(fold.mean(), 0.0);
}

TEST(AggregateFold, EmitsOneRowPerGroupInOrder) {
  const CampaignAxes axes = small_axes(2, 2, 3);
  AggregateFold fold(axes);
  std::size_t rows_emitted = 0;
  for (std::size_t flat = 0; flat < axes.cell_count(); ++flat) {
    const AggregateRow* row = fold.add(make_cell(
        axes, flat, {{"x", static_cast<double>(flat)}}));
    if ((flat + 1) % axes.replications == 0) {
      ASSERT_NE(row, nullptr);
      ++rows_emitted;
      // The row covers the three contiguous flats of its group.
      const double first = static_cast<double>(flat - 2);
      EXPECT_DOUBLE_EQ(find_metric(*row, "x").mean, first + 1.0);
      EXPECT_DOUBLE_EQ(find_metric(*row, "x").min, first);
      EXPECT_DOUBLE_EQ(find_metric(*row, "x").max, first + 2.0);
    } else {
      EXPECT_EQ(row, nullptr);
    }
  }
  EXPECT_EQ(rows_emitted, 4u);
  EXPECT_EQ(fold.rows().size(), 4u);
}

TEST(AggregateFold, RejectsOutOfOrderAndMismatchedMetrics) {
  const CampaignAxes axes = small_axes(1, 1, 3);
  AggregateFold fold(axes);
  (void)fold.add(make_cell(axes, 0, {{"x", 1.0}}));
  // Skipping flat 1 is a delivery-contract violation, not data corruption.
  EXPECT_THROW((void)fold.add(make_cell(axes, 2, {{"x", 1.0}})),
               std::logic_error);

  AggregateFold renamed(axes);
  (void)renamed.add(make_cell(axes, 0, {{"x", 1.0}}));
  EXPECT_THROW((void)renamed.add(make_cell(axes, 1, {{"y", 1.0}})),
               std::logic_error);
}

TEST(CampaignSummary, AccessorsMatchCampaignResult) {
  const CampaignAxes axes = small_axes(2, 2, 4);
  const auto evaluate = [](const CellContext& ctx) {
    return CellMetrics{{"v", static_cast<double>(ctx.seed % 1000)}};
  };
  const CampaignResult result = CampaignRunner().run(axes, evaluate);

  FoldSink sink;
  CampaignRunner().run_with_sink(axes, evaluate, sink);
  const CampaignSummary summary = sink.take();

  ASSERT_EQ(summary.rows.size(), result.rows.size());
  for (std::size_t sc = 0; sc < 2; ++sc) {
    for (std::size_t st = 0; st < 2; ++st) {
      EXPECT_DOUBLE_EQ(summary.mean(sc, st, "v"), result.mean(sc, st, "v"));
      EXPECT_DOUBLE_EQ(summary.sem(sc, st, "v"), result.sem(sc, st, "v"));
      EXPECT_LE(summary.min(sc, st, "v"), summary.mean(sc, st, "v"));
      EXPECT_GE(summary.max(sc, st, "v"), summary.mean(sc, st, "v"));
    }
  }
  EXPECT_THROW((void)summary.mean(0, 0, "nope"), std::out_of_range);
  EXPECT_EQ(summary.summary_table().row_count(), 4u);
  const report::Series series = summary.metric_series(0, "v");
  ASSERT_EQ(series.x.size(), 2u);  // one point per scenario
  EXPECT_DOUBLE_EQ(series.y[0], summary.mean(0, 0, "v"));
  EXPECT_DOUBLE_EQ(series.y[1], summary.mean(1, 0, "v"));
}

/// Sink that records delivery order, for the window-boundedness tests.
class RecordingSink final : public CampaignSink {
 public:
  void on_cell(const CellResult& cell) override {
    flats.push_back(cell.context.flat);
  }
  std::vector<std::size_t> flats;
};

TEST(CampaignRunner, DeliversInAscendingFlatOrderUnderContention) {
  const CampaignAxes axes = small_axes(4, 2, 4);
  par::ThreadPool pool(8);
  CampaignOptions options;
  options.pool = &pool;
  RecordingSink sink;
  CampaignRunner(options).run_with_sink(
      axes,
      [](const CellContext& ctx) {
        // Jitter completion order: later cells finish sooner.
        if (ctx.flat % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return CellMetrics{{"v", 1.0}};
      },
      sink);
  ASSERT_EQ(sink.flats.size(), axes.cell_count());
  for (std::size_t i = 0; i < sink.flats.size(); ++i) {
    EXPECT_EQ(sink.flats[i], i);
  }
}

TEST(CampaignRunner, ReorderWindowBoundsInFlightCells) {
  // Cell 0 blocks until released; with reorder_window = 4 the claim gate
  // must stop any cell beyond flat 3 from even *starting* while cell 0 is
  // open, no matter how many workers are idle.
  const CampaignAxes axes = small_axes(4, 2, 2);  // 16 cells
  constexpr std::size_t kWindow = 4;
  par::ThreadPool pool(8);
  CampaignOptions options;
  options.pool = &pool;
  options.reorder_window = kWindow;

  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> started_while_blocked{0};
  std::atomic<bool> released{false};
  RecordingSink sink;
  CampaignRunner(options).run_with_sink(
      axes,
      [&](const CellContext& ctx) {
        started.fetch_add(1);
        if (ctx.flat == 0) {
          // Give stragglers a chance to (incorrectly) start, then record
          // how many did.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          started_while_blocked.store(started.load());
          released.store(true);
        }
        return CellMetrics{{"v", static_cast<double>(ctx.flat)}};
      },
      sink);

  EXPECT_TRUE(released.load());
  EXPECT_EQ(started.load(), axes.cell_count());
  // While cell 0 (claim 0) was undelivered, only claims < window could
  // start: at most `kWindow` cells including cell 0 itself.
  EXPECT_LE(started_while_blocked.load(), kWindow);
  EXPECT_GE(started_while_blocked.load(), 1u);
  // And delivery order is still exactly flat order.
  ASSERT_EQ(sink.flats.size(), axes.cell_count());
  for (std::size_t i = 0; i < sink.flats.size(); ++i) {
    EXPECT_EQ(sink.flats[i], i);
  }
}

}  // namespace
}  // namespace gridsub::exp
