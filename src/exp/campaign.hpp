#pragma once

// Experiment-campaign engine: the (scenario × strategy × replication) grid.
//
// Every simulation study in this repository reduces to the same shape: a
// grid of independent cells, each deterministic in its own seed, whose
// metrics are aggregated per (scenario, strategy) group. This engine owns
// that shape once — benches declare axes and a cell evaluator, the runner
// shards cells across the par::ThreadPool, and the result renders itself
// as a report::Table or JSON.
//
// Determinism contract (the engine's one load-bearing guarantee):
//
//   seeding   — every cell's seed is a chained SplitMix64 hash of
//               (root_seed, scenario, strategy, replication) and of
//               nothing else: not thread count, not execution order,
//               not which process evaluates the cell;
//   placement — results land in a pre-sized slot indexed by the cell's
//               flat index (row-major scenario → strategy → replication);
//   fold order — aggregation folds each (scenario, strategy) group's
//               replications in ascending flat-index order, so floating-
//               point sums are schedule-independent.
//
// Together these make a campaign's output (JSON bytes included) identical
// at 1, 2, or N worker threads — and, because the per-cell seed is also
// process-independent, across interrupted-and-resumed runs and across
// N-process sharded runs merged back together (exp/checkpoint.hpp).
// CampaignRunner::run must be called from outside the pool it executes on
// (cells may not recursively launch campaigns on the same pool).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "report/series.hpp"
#include "report/table.hpp"

namespace gridsub::exp {

/// Position of one cell in the campaign grid, plus its derived seed.
struct CellContext {
  std::size_t flat = 0;         ///< index in row-major (scenario, strategy,
                                ///< replication) order
  std::size_t scenario = 0;     ///< index on the scenario axis
  std::size_t strategy = 0;     ///< index on the strategy axis
  std::size_t replication = 0;  ///< replication number within the group
  std::uint64_t seed = 0;       ///< deterministic per-cell seed
};

/// Ordered (name, value) metric list produced by one cell. All cells of a
/// (scenario, strategy) group must emit the same names in the same order.
using CellMetrics = std::vector<std::pair<std::string, double>>;

/// The sub-grid one process owns in a multi-process campaign: cells whose
/// flat index satisfies `flat % count == index`. Round-robin assignment
/// interleaves scenarios and replications, so shards stay load-balanced
/// even when cell cost varies along an axis. `{0, 1}` (the default) is
/// the whole grid.
struct CampaignShard {
  std::size_t index = 0;
  std::size_t count = 1;

  [[nodiscard]] bool active() const { return count > 1; }
  [[nodiscard]] bool owns(std::size_t flat) const {
    return flat % count == index;
  }
  /// Throws std::invalid_argument unless index < count and count >= 1.
  void validate() const;
};

/// Evaluates one cell. Called concurrently from pool workers: it must not
/// touch shared mutable state (everything it needs travels in the context
/// seed and whatever immutable state the closure captures).
using CellEvaluator = std::function<CellMetrics(const CellContext&)>;

/// The abstract campaign grid: named axes, replication count, seed policy.
/// Sim-level specs (exp/experiment.hpp) compile down to this.
struct CampaignAxes {
  std::string name = "campaign";
  std::string scenario_axis = "scenario";  ///< display name of axis 1
  std::string strategy_axis = "strategy";  ///< display name of axis 2
  std::vector<std::string> scenario_labels;
  std::vector<std::string> strategy_labels;
  std::size_t replications = 1;
  std::uint64_t root_seed = 20090611;

  [[nodiscard]] std::size_t cell_count() const {
    return scenario_labels.size() * strategy_labels.size() * replications;
  }

  /// SplitMix64 hash of (root_seed, scenario, strategy, replication):
  /// depends on indices only, never on execution order or thread count.
  [[nodiscard]] std::uint64_t cell_seed(std::size_t scenario,
                                        std::size_t strategy,
                                        std::size_t replication) const;

  /// Decodes a flat index into a full context (with seed).
  [[nodiscard]] CellContext cell(std::size_t flat) const;

  /// Throws std::invalid_argument on empty axes or zero replications.
  void validate() const;
};

/// One evaluated cell: its grid position and the metrics it produced.
struct CellResult {
  CellContext context;
  CellMetrics metrics;
};

/// Mean / standard-error summary of one (scenario, strategy) group.
struct AggregateRow {
  std::size_t scenario = 0;
  std::size_t strategy = 0;
  std::size_t replications = 0;
  struct Metric {
    std::string name;
    double mean = 0.0;
    double sem = 0.0;  ///< sample stderr of the mean (0 for 1 replication)
    double min = 0.0;  ///< smallest per-cell value across replications
    double max = 0.0;  ///< largest per-cell value across replications
  };
  std::vector<Metric> metrics;  ///< in cell metric order
};

/// Consumer of campaign cells in ascending flat order (exp/fold.hpp).
class CampaignSink;

/// The aggregated metric of one row; throws std::out_of_range for unknown
/// names.
[[nodiscard]] const AggregateRow::Metric& find_metric(
    const AggregateRow& row, const std::string& name);

/// A campaign reduced to its per-group aggregates: what the streaming
/// sinks (exp/fold.hpp) retain, in O(groups) memory.
struct CampaignSummary {
  CampaignAxes axes;
  std::vector<AggregateRow> rows;  ///< ascending (scenario, strategy)

  /// The aggregate of one (scenario, strategy) group.
  [[nodiscard]] const AggregateRow& aggregate(std::size_t scenario,
                                              std::size_t strategy) const;
  /// Aggregated mean / stderr of a named metric; throws std::out_of_range
  /// for unknown names.
  [[nodiscard]] double mean(std::size_t scenario, std::size_t strategy,
                            const std::string& metric) const;
  [[nodiscard]] double sem(std::size_t scenario, std::size_t strategy,
                           const std::string& metric) const;
  /// Group extrema across replications (min/max of the per-cell values).
  [[nodiscard]] double min(std::size_t scenario, std::size_t strategy,
                           const std::string& metric) const;
  [[nodiscard]] double max(std::size_t scenario, std::size_t strategy,
                           const std::string& metric) const;

  /// One row per (scenario, strategy) group with mean columns for the
  /// requested metrics (all metrics when the list is empty).
  [[nodiscard]] report::Table summary_table(
      const std::vector<std::string>& metrics = {}) const;

  /// Mean of `metric` against the scenario index for one strategy — the
  /// figure-friendly view of a summary.
  [[nodiscard]] report::Series metric_series(std::size_t strategy,
                                             const std::string& metric) const;
};

/// Collected campaign output: the summary plus every cell's metrics in
/// flat order, renderable as deterministic JSON.
class CampaignResult : public CampaignSummary {
 public:
  /// Folds `cells` (flat order) into the summary rows.
  CampaignResult(CampaignAxes campaign_axes, std::vector<CellResult> cells);

  [[nodiscard]] const std::vector<CellResult>& cells() const {
    return cells_;
  }

  /// Deterministic JSON: stable key order, shortest round-trip doubles.
  /// Identical campaigns produce byte-identical output at any thread count.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<CellResult> cells_;
};

/// Monotone progress snapshot delivered to CampaignOptions::on_progress.
/// `completed` counts every cell this process holds — restored from a
/// checkpoint or freshly evaluated — so resume-aware ETAs come out right;
/// `fresh` counts only cells evaluated in this run (the rate basis).
struct CampaignProgress {
  std::size_t completed = 0;  ///< cells done so far (monotone, <= total)
  std::size_t total = 0;      ///< cells this process will hold at the end
  std::size_t fresh = 0;      ///< cells freshly evaluated this run
  CampaignShard shard;        ///< the partition this process owns
};

struct CampaignOptions {
  /// Pool to shard cells on; nullptr uses par::ThreadPool::shared().
  par::ThreadPool* pool = nullptr;
  /// Progress callback, invoked under the runner's lock: once with the
  /// resumed baseline before evaluation starts, then after every freshly
  /// completed cell. Snapshots are monotone in `completed`. Completion
  /// order is nondeterministic — do not derive results from it; the
  /// callback must not throw.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Size of the reorder window that holds out-of-order cell completions
  /// back so sinks see ascending flat order: a worker may start cell k
  /// (in claim order) only when fewer than `reorder_window` earlier cells
  /// are still outstanding. Bounds both sink buffering and checkpoint
  /// record disorder. 0 picks max(16, 2 × pool threads).
  std::size_t reorder_window = 0;
  /// When non-empty, every completed cell is appended to this checkpoint
  /// file (exp/checkpoint.hpp format) and flushed as it finishes, and a
  /// later run with the same axes resumes by skipping recorded cells.
  /// Because cells are seed-pure and metric doubles round-trip exactly,
  /// an interrupted-and-resumed campaign produces byte-identical JSON to
  /// a straight-through run.
  std::string checkpoint_path;
  /// The cell partition this process owns; `{0, 1}` (default) is the
  /// whole grid. A multi-shard partition is only meaningful through
  /// run_shard() + merge_checkpoints().
  CampaignShard shard;
};

/// Executes campaign cells concurrently and deterministically.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Runs every cell of `axes` through `evaluate`, collecting the full
  /// in-memory result (a CollectSink under the hood). Cells are claimed
  /// from the pool dynamically (load balancing; cell costs vary). The
  /// lowest-claim cell exception is rethrown after all cells have
  /// settled — with checkpointing enabled, cells that completed before
  /// the failure are already on disk, so the rerun resumes rather than
  /// restarts. Throws std::invalid_argument when options name a
  /// multi-shard partition (use run_shard) and CheckpointError when an
  /// existing checkpoint is corrupt or belongs to a different campaign.
  [[nodiscard]] CampaignResult run(const CampaignAxes& axes,
                                   const CellEvaluator& evaluate) const;

  /// Like run(), but streams cells into `sink` in ascending flat order
  /// instead of materializing a CampaignResult: memory stays
  /// O(reorder_window) + whatever the sink keeps (O(groups) for
  /// FoldSink/JsonStreamSink). Resumed cells flow through the sink too,
  /// so a resumed run's sink output is identical to a straight one's.
  void run_with_sink(const CampaignAxes& axes, const CellEvaluator& evaluate,
                     CampaignSink& sink) const;

  /// Evaluates only this process's shard of the grid (options.shard),
  /// appending completed cells to options.checkpoint_path (required) and
  /// resuming from it when it already exists. Returns the number of cells
  /// freshly evaluated (0 when the shard was already complete). When
  /// `sink` is non-null it receives the shard's cells (resumed and fresh)
  /// in ascending flat order. The full campaign result is recovered by
  /// merge_checkpoints() / tools/gridsub_campaign_merge once every shard
  /// has run.
  [[nodiscard]] std::size_t run_shard(const CampaignAxes& axes,
                                      const CellEvaluator& evaluate,
                                      CampaignSink* sink = nullptr) const;

 private:
  CampaignOptions options_;
};

}  // namespace gridsub::exp
