#pragma once

// Shared helpers for the experiment harness: dataset-to-model plumbing,
// campaign-spec builders, and consistent headers so every bench prints a
// self-describing report.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "exp/checkpoint.hpp"
#include "exp/experiment.hpp"
#include "exp/fold.hpp"
#include "exp/stage.hpp"
#include "model/discretized.hpp"
#include "traces/datasets.hpp"
#include "traces/scenarios.hpp"

namespace gridsub::bench {

/// Grid step used by all table/figure benches (1 s, i.e. the integer
/// resolution the paper uses for practical timeouts).
inline constexpr double kStep = 1.0;

/// Builds the discretized empirical model of a named dataset.
inline model::DiscretizedLatencyModel load_model(const std::string& name,
                                                 double step = kStep) {
  const auto trace = traces::make_trace_by_name(name);
  return model::DiscretizedLatencyModel::from_trace(trace, step);
}

/// True when the bench runner asked for a fast smoke pass
/// (GRIDSUB_BENCH_QUICK=1): campaign benches shrink replications, never
/// axes, so coverage stays full while CI stays fast.
inline bool quick_mode() {
  const char* v = std::getenv("GRIDSUB_BENCH_QUICK");
  return v != nullptr && v[0] == '1';
}

/// Builds the campaign scenario for one synthetic replay week: an
/// egee_like grid whose Poisson background is silenced (the replayed
/// workload *is* the background traffic) plus the named scenario's
/// workload, shared read-only across cells.
inline exp::ScenarioCase replay_scenario(const std::string& name,
                                         const traces::ScenarioConfig& scen) {
  exp::ScenarioCase sc;
  sc.label = name;
  sc.grid = sim::GridConfig::egee_like();
  sc.grid.background.arrival_rate = 0.0;
  sc.workload = std::make_shared<const traces::Workload>(
      traces::make_scenario(name, scen));
  return sc;
}

/// Scale-out environment shared by every campaign bench, set by
/// scripts/run_benches.py (or by hand for multi-host runs):
///
///   GRIDSUB_SHARD="i/N"        this process owns cells flat % N == i
///                              (0-based); requires a checkpoint dir
///   GRIDSUB_CHECKPOINT_DIR=D   campaigns checkpoint to
///                              D/<campaign>[.shard<i>of<N>].ckpt and,
///                              when run to completion, also write the
///                              canonical D/<campaign>.json
struct CampaignEnv {
  exp::CampaignShard shard;
  std::string checkpoint_dir;

  [[nodiscard]] bool shard_mode() const { return shard.active(); }
  [[nodiscard]] std::string checkpoint_path(
      const std::string& campaign) const {
    std::string name = campaign;
    if (shard.active()) {
      name += ".shard" + std::to_string(shard.index) + "of" +
              std::to_string(shard.count);
    }
    return checkpoint_dir + "/" + name + ".ckpt";
  }
};

/// Parses the scale-out environment; exits with a message on a malformed
/// GRIDSUB_SHARD or a shard request without a checkpoint directory.
inline CampaignEnv campaign_env() {
  CampaignEnv env;
  if (const char* s = std::getenv("GRIDSUB_SHARD"); s != nullptr && *s) {
    std::size_t index = 0, count = 0;
    int consumed = 0;
    // %n + end check: trailing garbage ("1/2,x", "0/24x") must fail
    // loudly, not silently run the wrong cell partition.
    if (std::sscanf(s, "%zu/%zu%n", &index, &count, &consumed) != 2 ||
        s[consumed] != '\0' || count == 0 || index >= count) {
      std::fprintf(stderr,
                   "GRIDSUB_SHARD='%s' is not 'i/N' with 0 <= i < N\n", s);
      std::exit(2);
    }
    env.shard.index = index;
    env.shard.count = count;
  }
  if (const char* d = std::getenv("GRIDSUB_CHECKPOINT_DIR");
      d != nullptr && *d) {
    env.checkpoint_dir = d;
  }
  if (env.shard_mode() && env.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "GRIDSUB_SHARD is set but GRIDSUB_CHECKPOINT_DIR is not: "
                 "shard results live only in checkpoint files\n");
    std::exit(2);
  }
  return env;
}

/// Wraps a campaign progress callback with the GRIDSUB_PROGRESS=1 stderr
/// meter: shard-aware completed/total plus an ETA extrapolated from the
/// fresh-cell rate (resumed cells are excluded — they land instantly at
/// the baseline snapshot and would make the estimate absurdly optimistic).
/// Throttled to one line every ~2 s plus the final snapshot, and the
/// snapshots fire under the runner lock, so the meter stays cheap and
/// never throws. Returns `inner` unchanged when the meter is off.
inline std::function<void(const exp::CampaignProgress&)> progress_meter(
    const std::string& name,
    std::function<void(const exp::CampaignProgress&)> inner = {}) {
  const char* v = std::getenv("GRIDSUB_PROGRESS");
  if (v == nullptr || v[0] != '1') return inner;
  using Clock = std::chrono::steady_clock;
  struct Meter {
    std::string name;
    Clock::time_point start = Clock::now();
    Clock::time_point last{};  // epoch: the baseline always prints
  };
  auto meter = std::make_shared<Meter>();
  meter->name = name;
  return [meter, inner = std::move(inner)](const exp::CampaignProgress& p) {
    if (inner) inner(p);
    const Clock::time_point now = Clock::now();
    if (p.fresh == 0) meter->start = now;  // baseline: resumed cells only
    const bool done = p.completed == p.total;
    if (!done && now - meter->last < std::chrono::seconds(2)) return;
    meter->last = now;
    std::string line = "[progress] " + meter->name + ": " +
                       std::to_string(p.completed) + "/" +
                       std::to_string(p.total) + " cells";
    if (p.shard.active()) {
      line += " (shard " + std::to_string(p.shard.index) + "/" +
              std::to_string(p.shard.count) + ")";
    }
    const double elapsed =
        std::chrono::duration<double>(now - meter->start).count();
    if (p.fresh > 0 && elapsed > 0.0 && !done) {
      const double rate = static_cast<double>(p.fresh) / elapsed;
      const double eta = static_cast<double>(p.total - p.completed) / rate;
      char buf[32];
      std::snprintf(buf, sizeof(buf), ", eta %.0fs", eta);
      line += buf;
    } else if (done) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ", done in %.1fs", elapsed);
      line += buf;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  };
}

/// Runs one campaign with the scale-out environment applied. The result
/// path never materializes the cell list: cells fold straight into
/// per-group aggregates (FoldSink), and when a checkpoint directory is set
/// the canonical D/<campaign>.json is streamed to disk as cells complete
/// (JsonStreamSink), so peak memory is O(reorder window + groups) at any
/// campaign size. Returns the fold summary, or std::nullopt in shard mode
/// (this process evaluated only its cell partition into the shard
/// checkpoint; fold the shards with tools/gridsub_campaign_merge).
/// Campaign names must be unique within a bench — the checkpoint file is
/// keyed on them. Only use this for *terminal* campaigns whose cells are
/// pure functions of the cell context (everything the bench consumes is in
/// the metrics); staged campaigns whose evaluators feed later stages
/// through side channels resume incorrectly, because restored cells never
/// re-run their side effects.
inline std::optional<exp::CampaignSummary> run_campaign(
    const exp::CampaignAxes& axes, const exp::CellEvaluator& evaluate,
    exp::CampaignOptions options = {}) {
  const CampaignEnv env = campaign_env();
  if (!env.checkpoint_dir.empty()) {
    std::filesystem::create_directories(env.checkpoint_dir);
    options.checkpoint_path = env.checkpoint_path(axes.name);
    options.shard = env.shard;
  }
  options.on_progress =
      progress_meter(axes.name, std::move(options.on_progress));
  const exp::CampaignRunner runner(std::move(options));
  if (env.shard_mode()) {
    const std::size_t evaluated = runner.run_shard(axes, evaluate);
    std::cout << "[shard " << env.shard.index << "/" << env.shard.count
              << "] campaign '" << axes.name << "': evaluated " << evaluated
              << " cells into " << env.checkpoint_path(axes.name)
              << " (fold the shards with gridsub_campaign_merge)\n";
    return std::nullopt;
  }
  if (!env.checkpoint_dir.empty()) {
    // Stream the canonical JSON while the campaign runs; a full disk or
    // yanked volume fails the bench loudly mid-run, not at diff time.
    const std::string json_path =
        env.checkpoint_dir + "/" + axes.name + ".json";
    std::ofstream os(json_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "cannot open campaign result '%s'\n",
                   json_path.c_str());
      std::exit(1);
    }
    exp::JsonStreamSink sink(os);
    try {
      runner.run_with_sink(axes, evaluate, sink);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write campaign result '%s': %s\n",
                   json_path.c_str(), e.what());
      std::exit(1);
    }
    if (!os.flush()) {
      std::fprintf(stderr, "cannot write campaign result '%s'\n",
                   json_path.c_str());
      std::exit(1);
    }
    return sink.take();
  }
  exp::FoldSink sink;
  runner.run_with_sink(axes, evaluate, sink);
  return sink.take();
}

/// ExperimentSpec convenience overload of run_campaign.
inline std::optional<exp::CampaignSummary> run_campaign(
    const exp::ExperimentSpec& spec, exp::CampaignOptions options = {}) {
  spec.validate();
  return run_campaign(spec.axes(), exp::make_cell_evaluator(spec),
                      std::move(options));
}

/// Runs a *stage* campaign (a fit/tune pass whose outputs parameterize
/// later campaigns) through exp::run_stage with the scale-out environment
/// applied: the stage persists to GRIDSUB_CHECKPOINT_DIR, so a kill
/// mid-fit resumes cell-by-cell, and sibling shard processes sharing the
/// directory load the published stage output instead of recomputing it.
/// Stage progress ("[stage] ...") goes to stderr. Evaluators must be pure
/// in the cell context — rebuild downstream state from the returned
/// result's cell metrics, never through side channels. The stage
/// checkpoint is single-writer: start shards staggered (or run shard 0 to
/// completion first) so exactly one process computes the stage and the
/// rest load it.
inline exp::StageResult run_stage_campaign(
    const exp::CampaignAxes& axes, const exp::CellEvaluator& evaluate,
    const std::string& identity, par::ThreadPool* pool = nullptr) {
  const CampaignEnv env = campaign_env();
  exp::StageOptions options;
  options.dir = env.checkpoint_dir;
  options.pool = pool;
  options.log = &std::cerr;
  options.on_progress = progress_meter(axes.name);
  return exp::run_stage(axes, evaluate, identity, options);
}

/// Looks up one metric of a stage-result cell by name; throws
/// std::out_of_range so a renamed fit metric fails loudly instead of
/// feeding zeros downstream.
inline double cell_metric(const exp::CellResult& cell,
                          const std::string& name) {
  for (const auto& [metric, value] : cell.metrics) {
    if (metric == name) return value;
  }
  throw std::out_of_range("cell " + std::to_string(cell.context.flat) +
                          " has no metric '" + name + "'");
}

/// Prints the standard bench header.
inline void print_header(const std::string& experiment,
                         const std::string& paper_ref,
                         const std::string& note = "") {
  std::cout << "== gridsub experiment: " << experiment << " ==\n";
  std::cout << "reproduces: " << paper_ref
            << " (Lingrand/Montagnat/Glatard, HPDC'09)\n";
  std::cout << "data: synthetic EGEE-like traces calibrated to the paper's "
               "Table 1 (see docs/reproducing.md)\n";
  if (!note.empty()) std::cout << "note: " << note << "\n";
  std::cout << "\n";
}

}  // namespace gridsub::bench
