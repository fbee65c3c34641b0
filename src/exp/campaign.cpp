#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <future>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/thread_annotations.hpp"
#include "exp/checkpoint.hpp"
#include "exp/fold.hpp"
#include "stats/rng.hpp"

namespace gridsub::exp {

namespace {

// Odd multipliers keep index 0 from collapsing the hash chain; the
// constants are the SplitMix64 finalizer's own.
constexpr std::uint64_t kScenarioSalt = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kStrategySalt = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kReplicationSalt = 0x94D049BB133111EBull;

}  // namespace

std::uint64_t CampaignAxes::cell_seed(std::size_t scenario,
                                      std::size_t strategy,
                                      std::size_t replication) const {
  // Chained SplitMix64: each field is folded into the *mixed* output of
  // the previous step, so every index bit passes through a full finalizer
  // before the next field lands (not just a linear accumulation).
  std::uint64_t s = root_seed;
  s = stats::splitmix64(s) ^
      kScenarioSalt * (static_cast<std::uint64_t>(scenario) + 1);
  s = stats::splitmix64(s) ^
      kStrategySalt * (static_cast<std::uint64_t>(strategy) + 1);
  s = stats::splitmix64(s) ^
      kReplicationSalt * (static_cast<std::uint64_t>(replication) + 1);
  return stats::splitmix64(s);
}

CellContext CampaignAxes::cell(std::size_t flat) const {
  CellContext ctx;
  ctx.flat = flat;
  ctx.replication = flat % replications;
  const std::size_t group = flat / replications;
  ctx.strategy = group % strategy_labels.size();
  ctx.scenario = group / strategy_labels.size();
  ctx.seed = cell_seed(ctx.scenario, ctx.strategy, ctx.replication);
  return ctx;
}

void CampaignShard::validate() const {
  if (count == 0) {
    throw std::invalid_argument("CampaignShard: zero shard count");
  }
  if (index >= count) {
    throw std::invalid_argument("CampaignShard: index " +
                                std::to_string(index) + " not below count " +
                                std::to_string(count));
  }
}

void CampaignAxes::validate() const {
  if (scenario_labels.empty()) {
    throw std::invalid_argument("CampaignAxes: no scenario labels");
  }
  if (strategy_labels.empty()) {
    throw std::invalid_argument("CampaignAxes: no strategy labels");
  }
  if (replications == 0) {
    throw std::invalid_argument("CampaignAxes: zero replications");
  }
}

const AggregateRow::Metric& find_metric(const AggregateRow& row,
                                        const std::string& name) {
  for (const auto& m : row.metrics) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("CampaignResult: unknown metric '" + name + "'");
}

const AggregateRow& CampaignSummary::aggregate(std::size_t scenario,
                                               std::size_t strategy) const {
  // Check each axis, not just the flattened index: an off-by-one on the
  // strategy axis must throw, not alias the next scenario's group.
  if (scenario >= axes.scenario_labels.size() ||
      strategy >= axes.strategy_labels.size()) {
    throw std::out_of_range("CampaignSummary::aggregate: bad cell group");
  }
  return rows[scenario * axes.strategy_labels.size() + strategy];
}

double CampaignSummary::mean(std::size_t scenario, std::size_t strategy,
                             const std::string& metric) const {
  return find_metric(aggregate(scenario, strategy), metric).mean;
}

double CampaignSummary::sem(std::size_t scenario, std::size_t strategy,
                            const std::string& metric) const {
  return find_metric(aggregate(scenario, strategy), metric).sem;
}

double CampaignSummary::min(std::size_t scenario, std::size_t strategy,
                            const std::string& metric) const {
  return find_metric(aggregate(scenario, strategy), metric).min;
}

double CampaignSummary::max(std::size_t scenario, std::size_t strategy,
                            const std::string& metric) const {
  return find_metric(aggregate(scenario, strategy), metric).max;
}

report::Table CampaignSummary::summary_table(
    const std::vector<std::string>& metrics) const {
  std::vector<std::string> names = metrics;
  if (names.empty() && !rows.empty()) {
    for (const auto& m : rows.front().metrics) names.push_back(m.name);
  }
  std::vector<std::string> headers = {axes.scenario_axis,
                                      axes.strategy_axis};
  for (const auto& n : names) headers.push_back(n);
  report::Table table(std::move(headers));
  for (const auto& row : rows) {
    auto& r = table.row()
                  .cell(axes.scenario_labels[row.scenario])
                  .cell(axes.strategy_labels[row.strategy]);
    for (const auto& n : names) r.cell(find_metric(row, n).mean, 3);
  }
  return table;
}

report::Series CampaignSummary::metric_series(
    std::size_t strategy, const std::string& metric) const {
  if (strategy >= axes.strategy_labels.size()) {
    throw std::out_of_range("CampaignSummary::metric_series: bad strategy");
  }
  report::Series series;
  series.label = axes.strategy_labels[strategy] + " " + metric;
  series.x.reserve(axes.scenario_labels.size());
  series.y.reserve(axes.scenario_labels.size());
  for (std::size_t s = 0; s < axes.scenario_labels.size(); ++s) {
    series.x.push_back(static_cast<double>(s));
    series.y.push_back(mean(s, strategy, metric));
  }
  return series;
}

CampaignResult::CampaignResult(CampaignAxes campaign_axes,
                               std::vector<CellResult> cells)
    : CampaignSummary{std::move(campaign_axes), {}},
      cells_(std::move(cells)) {
  // Aggregate through the same streaming folds the sinks use, in flat
  // order: replications of one (scenario, strategy) group are contiguous,
  // so each group folds in a fixed order regardless of the execution
  // schedule — and the buffered and streamed paths stay byte-identical
  // by construction.
  const std::size_t reps = std::max<std::size_t>(1, axes.replications);
  const std::size_t whole = (cells_.size() / reps) * reps;
  AggregateFold fold(axes);
  for (std::size_t flat = 0; flat < whole; ++flat) fold.add(cells_[flat]);
  rows = fold.take_rows();
}

void CampaignResult::write_json(std::ostream& os) const {
  detail::write_campaign_json_prefix(os, axes);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    detail::write_campaign_json_cell(os, axes, cells_[i],
                                     i + 1 == cells_.size());
  }
  detail::write_campaign_json_aggregates(os, axes, rows);
}

std::string CampaignResult::to_json() const {
  std::ostringstream ss;
  write_json(ss);
  return ss.str();
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

namespace {

/// Cells already on disk before this run, restored from the checkpoint.
struct ResumeState {
  std::vector<bool> have;
  std::vector<CellMetrics> metrics;  ///< valid where have[flat]
  /// True when there is no usable checkpoint content yet (file absent or
  /// blank) and the header must be written before the first record.
  bool fresh = true;
  /// Bytes of the file that parsed cleanly; a dropped partial tail is
  /// truncated away before appending so it cannot glue onto new records.
  std::size_t valid_bytes = 0;
  /// The kept content lacks its final newline (whole-JSON clipped tail);
  /// the writer must emit '\n' before its first appended record.
  bool missing_final_newline = false;

  explicit ResumeState(std::size_t n) : have(n, false), metrics(n) {}
};

/// Loads `path` if it holds checkpoint content and verifies it belongs to
/// exactly this (axes, shard) before trusting any recorded cell.
ResumeState resume_from(const std::string& path, const CampaignAxes& axes,
                        const CampaignShard& shard) {
  ResumeState state(axes.cell_count());
  std::ifstream is(path, std::ios::binary);
  if (!is) return state;  // no checkpoint yet
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  if (content.empty() ||
      content.find_first_not_of(" \t\r\n") == std::string::npos) {
    return state;  // an empty placeholder file
  }
  if (content.find('\n') == std::string::npos) {
    // A newline-less file can be the artifact of a kill during the very
    // first (header) write — but only if it reads as a clipped header.
    // Then no record can exist and the run starts fresh (the writer
    // truncates to valid_bytes = 0 before writing the new header). Any
    // other newline-less content means checkpoint_path points at some
    // unrelated file, which must never be silently overwritten.
    constexpr std::string_view kHeaderPrefix =
        "{\"schema\": \"gridsub-checkpoint-v1\"";
    const std::size_t overlap =
        std::min(content.size(), kHeaderPrefix.size());
    if (content.compare(0, overlap, kHeaderPrefix, 0, overlap) != 0) {
      throw CheckpointError(path +
                            ": not a gridsub checkpoint — refusing to "
                            "overwrite it");
    }
    return state;
  }
  CampaignCheckpoint checkpoint = parse_checkpoint(content, path);
  if (!same_campaign(checkpoint.axes, axes)) {
    throw CheckpointError(path + ": checkpoint belongs to campaign '" +
                          checkpoint.axes.name +
                          "' with different axes/replications/root seed — "
                          "refusing to resume '" + axes.name + "' from it");
  }
  if (checkpoint.shard.index != shard.index ||
      checkpoint.shard.count != shard.count) {
    throw CheckpointError(
        path + ": checkpoint was written by shard " +
        std::to_string(checkpoint.shard.index) + "/" +
        std::to_string(checkpoint.shard.count) + ", not shard " +
        std::to_string(shard.index) + "/" + std::to_string(shard.count) +
        " — resume with the same partition or merge instead");
  }
  state.fresh = false;
  state.valid_bytes = checkpoint.valid_bytes;
  state.missing_final_newline = checkpoint.missing_final_newline;
  for (CellResult& cell : checkpoint.cells) {
    state.have[cell.context.flat] = true;
    state.metrics[cell.context.flat] = std::move(cell.metrics);
  }
  return state;
}

/// The streaming core behind run / run_with_sink / run_shard.
///
/// Workers claim pending cells from an atomic cursor in ascending flat
/// order; a claim may start evaluating only when fewer than
/// `reorder_window` earlier claims are still undelivered, so completed
/// cells never pile up beyond the window. Completions land in a
/// window-sized ring and are drained — interleaved with checkpoint-
/// restored cells — to the sink in strictly ascending flat order. This
/// cannot deadlock: deliveries follow claim order, so the minimal
/// in-flight claim always has every earlier claim already delivered and
/// its own gate open.
///
/// Lock discipline (compiler-checked through the GRIDSUB_GUARDED_BY
/// annotations): every field of the reorder/delivery state is guarded by
/// `mu_`; checkpoint appends go through CheckpointWriter's own internal
/// lock *outside* `mu_`, so the two mutexes never nest. Everything not
/// annotated is either immutable after construction (owned_, pending_,
/// resume_.have, window_) or touched only before workers start / after
/// they join.
class CellStream {
 public:
  CellStream(const CampaignOptions& options, const CampaignAxes& axes,
             const CellEvaluator& evaluate, ResumeState resume,
             CampaignSink* sink)
      : options_(options),
        axes_(axes),
        evaluate_(evaluate),
        resume_(std::move(resume)),
        sink_(sink),
        shard_(options.shard),
        pool_(options.pool != nullptr ? *options.pool
                                      : par::ThreadPool::shared()) {
    if (!options_.checkpoint_path.empty()) {
      CheckpointWriter::Resume tail;
      tail.fresh = resume_.fresh;
      tail.valid_bytes = resume_.valid_bytes;
      tail.missing_final_newline = resume_.missing_final_newline;
      writer_.emplace(options_.checkpoint_path, axes_, shard_, tail);
    }

    // Owned cells in ascending flat order; the not-yet-done subset is
    // the claim list workers race down.
    for (std::size_t flat = 0; flat < axes_.cell_count(); ++flat) {
      if (!shard_.owns(flat)) continue;
      owned_.push_back(flat);
      if (!resume_.have[flat]) pending_.push_back(flat);
    }
    resumed_count_ = owned_.size() - pending_.size();
    window_ = options_.reorder_window > 0
                  ? options_.reorder_window
                  : std::max<std::size_t>(16, 2 * pool_.thread_count());
    // Claim k's completion parks in ring_[k % ring_.size()] until
    // drained; the gate keeps at most `window_` claims undelivered, so a
    // window-sized ring can never collide.
    ring_.resize(std::max<std::size_t>(
        1, std::min(window_, pending_.size())));
  }

  /// Runs the stream to completion; returns the number of cells freshly
  /// evaluated. Rethrows the lowest-claim worker error after all cells
  /// have settled.
  std::size_t run() {
    if (sink_ != nullptr) sink_->begin(axes_);

    {
      // Baseline: deliver the restored prefix (everything, on a fully
      // resumed run) and let a resume-aware ETA start from `completed`.
      const core::MutexLock lock(mu_);
      report_progress();
      try {
        drain();
      } catch (...) {
        record_error(0);
      }
    }

    const std::size_t workers =
        std::min(std::max<std::size_t>(1, pool_.thread_count()),
                 pending_.size());
    std::vector<std::future<void>> futures;
    futures.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      futures.push_back(pool_.submit([this] { worker(); }));
    }
    for (auto& f : futures) f.get();  // workers swallow their own errors

    {
      const core::MutexLock lock(mu_);
      if (first_error_) std::rethrow_exception(first_error_);
      if (deliver_pos_ != owned_.size()) {
        throw std::logic_error(
            "CampaignRunner: drained " + std::to_string(deliver_pos_) +
            " of " + std::to_string(owned_.size()) +
            " cells with no error");
      }
    }
    if (sink_ != nullptr) sink_->end();
    return pending_.size();
  }

 private:
  void worker() {
    while (true) {
      const std::size_t claim =
          next_claim_.fetch_add(1, std::memory_order_relaxed);
      if (claim >= pending_.size()) return;
      {
        core::MutexLock lock(mu_);
        gate_.wait(mu_, [this, claim]() GRIDSUB_REQUIRES(mu_) {
          return aborted_ || claim < drained_fresh_ + window_;
        });
      }
      const std::size_t flat = pending_[claim];
      try {
        CellResult result;
        result.context = axes_.cell(flat);
        result.metrics = evaluate_(result.context);
        // Record first, outside the stream lock (the writer locks
        // itself): a kill after this line leaves the cell persisted even
        // if it was never delivered, which resume handles as a benign
        // duplicate of work never re-done.
        if (writer_.has_value()) writer_->append(result);
        const core::MutexLock lock(mu_);
        ++fresh_done_;
        report_progress();
        if (!aborted_) {
          ring_[claim % ring_.size()] = std::move(result);
          drain();
        }
        gate_.notify_all();
      } catch (...) {
        // Evaluation, checkpoint-append, or sink failure: remember the
        // error, open every gate, and keep claiming — remaining cells
        // still evaluate (and checkpoint) so a rerun resumes close to
        // where this one failed.
        const core::MutexLock lock(mu_);
        record_error(claim);
        gate_.notify_all();
      }
    }
  }

  /// Delivers every cell that is ready, in flat order: restored cells
  /// immediately, fresh ones as their ring slot fills.
  void drain() GRIDSUB_REQUIRES(mu_) {
    while (deliver_pos_ < owned_.size()) {
      const std::size_t flat = owned_[deliver_pos_];
      CellResult cell;
      if (resume_.have[flat]) {
        cell.context = axes_.cell(flat);
        cell.metrics = std::move(resume_.metrics[flat]);
      } else {
        std::optional<CellResult>& slot =
            ring_[drained_fresh_ % ring_.size()];
        if (!slot.has_value()) break;  // next fresh cell still in flight
        cell = std::move(*slot);
        slot.reset();
        ++drained_fresh_;
        gate_.notify_all();
      }
      if (sink_ != nullptr) sink_->on_cell(cell);
      ++deliver_pos_;
    }
  }

  void record_error(std::size_t claim) GRIDSUB_REQUIRES(mu_) {
    // Keep the lowest-claim error: deterministic choice among racers.
    if (!first_error_ || claim < first_error_claim_) {
      first_error_ = std::current_exception();
      first_error_claim_ = claim;
    }
    aborted_ = true;
  }

  void report_progress() GRIDSUB_REQUIRES(mu_) {
    if (!options_.on_progress) return;
    CampaignProgress p;
    p.completed = resumed_count_ + fresh_done_;
    p.total = owned_.size();
    p.fresh = fresh_done_;
    p.shard = shard_;
    options_.on_progress(p);
  }

  const CampaignOptions& options_;
  const CampaignAxes& axes_;
  const CellEvaluator& evaluate_;
  ResumeState resume_;  ///< have[] immutable; metrics[] consumed in drain()
  CampaignSink* sink_;
  const CampaignShard shard_;
  par::ThreadPool& pool_;
  std::optional<CheckpointWriter> writer_;  ///< internally locked
  std::vector<std::size_t> owned_;    ///< immutable once workers start
  std::vector<std::size_t> pending_;  ///< immutable once workers start
  std::size_t resumed_count_ = 0;
  std::size_t window_ = 0;

  core::Mutex mu_;
  core::CondVar gate_;
  std::atomic<std::size_t> next_claim_{0};
  std::vector<std::optional<CellResult>> ring_ GRIDSUB_GUARDED_BY(mu_);
  std::size_t drained_fresh_ GRIDSUB_GUARDED_BY(mu_) = 0;
  std::size_t deliver_pos_ GRIDSUB_GUARDED_BY(mu_) = 0;
  std::size_t fresh_done_ GRIDSUB_GUARDED_BY(mu_) = 0;
  bool aborted_ GRIDSUB_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ GRIDSUB_GUARDED_BY(mu_);
  std::size_t first_error_claim_ GRIDSUB_GUARDED_BY(mu_) = 0;
};

std::size_t run_cells(const CampaignOptions& options,
                      const CampaignAxes& axes,
                      const CellEvaluator& evaluate, ResumeState resume,
                      CampaignSink* sink) {
  CellStream stream(options, axes, evaluate, std::move(resume), sink);
  return stream.run();
}

}  // namespace

void CampaignRunner::run_with_sink(const CampaignAxes& axes,
                                   const CellEvaluator& evaluate,
                                   CampaignSink& sink) const {
  axes.validate();
  if (!evaluate) {
    throw std::invalid_argument("CampaignRunner::run_with_sink: null "
                                "evaluator");
  }
  options_.shard.validate();
  if (options_.shard.active()) {
    throw std::invalid_argument(
        "CampaignRunner::run_with_sink: options name shard " +
        std::to_string(options_.shard.index) + "/" +
        std::to_string(options_.shard.count) +
        " but a sink run produces the whole grid — use run_shard() and "
        "merge_checkpoints()");
  }
  ResumeState resume(axes.cell_count());
  if (!options_.checkpoint_path.empty()) {
    resume = resume_from(options_.checkpoint_path, axes, options_.shard);
  }
  (void)run_cells(options_, axes, evaluate, std::move(resume), &sink);
}

CampaignResult CampaignRunner::run(const CampaignAxes& axes,
                                   const CellEvaluator& evaluate) const {
  axes.validate();
  if (!evaluate) {
    throw std::invalid_argument("CampaignRunner::run: null evaluator");
  }
  options_.shard.validate();
  if (options_.shard.active()) {
    throw std::invalid_argument(
        "CampaignRunner::run: options name shard " +
        std::to_string(options_.shard.index) + "/" +
        std::to_string(options_.shard.count) +
        " but run() produces the whole grid — use run_shard() and "
        "merge_checkpoints()");
  }
  ResumeState resume(axes.cell_count());
  if (!options_.checkpoint_path.empty()) {
    resume = resume_from(options_.checkpoint_path, axes, options_.shard);
  }
  CollectSink collect;
  (void)run_cells(options_, axes, evaluate, std::move(resume), &collect);
  return collect.take();
}

std::size_t CampaignRunner::run_shard(const CampaignAxes& axes,
                                      const CellEvaluator& evaluate,
                                      CampaignSink* sink) const {
  axes.validate();
  if (!evaluate) {
    throw std::invalid_argument("CampaignRunner::run_shard: null evaluator");
  }
  options_.shard.validate();
  if (options_.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "CampaignRunner::run_shard: options.checkpoint_path is required "
        "(the shard's cells live only in the checkpoint file)");
  }
  ResumeState resume =
      resume_from(options_.checkpoint_path, axes, options_.shard);
  return run_cells(options_, axes, evaluate, std::move(resume), sink);
}

}  // namespace gridsub::exp
