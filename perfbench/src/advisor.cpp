// Workload `advisor`: the operator's path, on two threads.
//
// Inputs: a seeded diurnal day of probe observations on 12 keys (3 VOs x 2
// sites x 2 user classes), exactly 1800 per key. Key k has a log-normal
// latency bulk with median 150 + 40·k s and log-sd 0.6 + 0.05·k, scaled
// by the time of day (1 + 0.5·sin(2πt / 1 day)), and an outlier share of
// 3% to 8%; a draw at or beyond the 4000 s planner timeout is an outlier
// too. Each key's observations are spread evenly over the day with a
// seeded jitter, and the keys are merged in time order.
//
// Service: window 200, first fit and refit every 60 observations, 20 s
// model step, 4000 s timeout (bench_advisor_qps's planner), no background
// refresher. Set-up ingests the stream's prefix until every key is ready
// and publishes. The timed phase: a writer thread ingests the rest and
// publishes with refresh_now() every 128 observations, while one reader
// thread calls Reader::advise over the key universe in a closed loop. An
// op is one lookup; lookups are timed in batches of 262144 (about 40 ms).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numbers>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "online/online_planner.hpp"
#include "serve/advisor.hpp"

namespace perfbench {

namespace {

using namespace gridsub;

constexpr std::size_t kPerKey = 1800;
constexpr double kDay = 86400.0;
constexpr std::size_t kPublishEvery = 128;
/// About 40 ms of lookups: long enough that a scheduler stall of a few ms
/// moves a sample by a few percent, short enough for ~115 samples a round.
constexpr std::size_t kBatch = 262144;
constexpr std::size_t kMinRounds = 2;

struct Observation {
  std::uint32_t key = 0;
  bool completed = true;
  double latency = 0.0;
  double time = 0.0;
};

serve::AdvisorConfig service_config() {
  serve::AdvisorConfig config;
  config.planner.window = 200;
  config.planner.min_observations = 60;
  config.planner.refit_interval = 60;
  config.planner.model_step = 20.0;
  config.planner.timeout = 4000.0;
  return config;
}

std::vector<serve::AdvisorKey> make_keys() {
  std::vector<serve::AdvisorKey> keys;
  for (const char* vo : {"vo0", "vo1", "vo2"}) {
    for (const char* site : {"lpc", "nikhef"}) {
      for (const char* uc : {"uc0", "uc1"}) keys.push_back({vo, site, uc});
    }
  }
  return keys;  // already in AdvisorKey order
}

std::vector<Observation> make_stream(std::uint64_t seed, double timeout,
                                     std::size_t n_keys) {
  std::vector<Observation> stream;
  stream.reserve(n_keys * kPerKey);
  for (std::size_t k = 0; k < n_keys; ++k) {
    std::mt19937_64 rng(mix_seed(seed, 500 + k));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> z(0.0, 1.0);
    const double median = 150.0 + 40.0 * static_cast<double>(k);
    const double log_sd = 0.6 + 0.05 * static_cast<double>(k);
    const double outlier_share = 0.03 + 0.01 * static_cast<double>(k % 6);
    for (std::size_t j = 0; j < kPerKey; ++j) {
      Observation o;
      o.key = static_cast<std::uint32_t>(k);
      o.time = (static_cast<double>(j) + unit(rng)) *
               (kDay / static_cast<double>(kPerKey));
      const double day =
          1.0 + 0.5 * std::sin(2.0 * std::numbers::pi * o.time / kDay);
      o.latency = median * day * std::exp(log_sd * z(rng));
      o.completed = unit(rng) >= outlier_share && o.latency < timeout;
      stream.push_back(o);
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Observation& a, const Observation& b) {
                     return a.time < b.time;
                   });
  return stream;
}

/// True when this observation (the key's n-th, 1-based) makes the key's
/// OnlinePlanner refit: at min_observations, then every refit_interval.
bool triggers_refit(std::size_t n, const online::OnlinePlannerConfig& c) {
  return n >= c.min_observations &&
         (n - c.min_observations) % c.refit_interval == 0;
}

bool feasible(const serve::Advice& a) {
  if (!std::isfinite(a.expectation) || !(a.expectation > 0.0)) return false;
  switch (a.kind) {
    case core::StrategyKind::kDelayedResubmission:
      return delayed_feasible(a.t0, a.t_inf);
    case core::StrategyKind::kMultipleSubmission:
      return a.b >= 2 && a.t_inf > 0.0;
    case core::StrategyKind::kSingleResubmission:
      return a.b == 1 && a.t_inf > 0.0;
  }
  return false;
}

struct ReaderReport {
  std::uint64_t lookups = 0;
  std::uint64_t torn = 0;
  std::uint64_t backwards = 0;
  std::uint64_t not_ready = 0;
  std::uint64_t infeasible = 0;
  double active_s = 0.0;
  std::vector<double> batch_us;  ///< per-lookup time of each batch
};

/// Closed-loop reader: whole batches over the key universe until `stop`.
void read_loop(serve::AdvisorService& service,
               const std::vector<serve::AdvisorKey>& keys,
               std::atomic<bool>& started, const std::atomic<bool>& stop,
               ReaderReport& report) {
  const serve::AdvisorService::Reader reader(service);
  report.batch_us.reserve(1 << 13);
  std::uint64_t last_generation = 0;
  std::size_t at = 0;
  started.store(true, std::memory_order_release);
  const Clock::time_point begin = Clock::now();
  while (!stop.load(std::memory_order_acquire)) {
    const Clock::time_point batch_start = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const serve::Advice a = reader.advise(keys[at]);
      at = at + 1 == keys.size() ? 0 : at + 1;
      report.torn += serve::advice_stamp(a) != a.stamp ? 1 : 0;
      report.backwards += a.generation < last_generation ? 1 : 0;
      last_generation = a.generation;
      report.not_ready += a.ready ? 0 : 1;
      report.infeasible += feasible(a) ? 0 : 1;
    }
    report.batch_us.push_back(1e6 * seconds_since(batch_start) /
                              static_cast<double>(kBatch));
    report.lookups += kBatch;
  }
  report.active_s = seconds_since(begin);
}

/// Feeds a fresh OnlinePlanner each key's observation sequence and
/// compares its recommendation with the service's published advice.
void check_against_fresh_planners(serve::AdvisorService& service,
                                  const std::vector<serve::AdvisorKey>& keys,
                                  const std::vector<Observation>& stream,
                                  RunResult& result) {
  const serve::AdvisorConfig config = service_config();
  std::vector<std::string> mismatch(keys.size());
  const auto check_key = [&](std::size_t k) {
    online::OnlinePlanner planner(config.planner);
    std::size_t n = 0, predicted = 0;
    for (const Observation& o : stream) {
      if (o.key != k) continue;
      if (o.completed) {
        planner.observe_completed(o.latency);
      } else {
        planner.observe_outlier();
      }
      predicted += triggers_refit(++n, config.planner) ? 1 : 0;
    }
    const serve::AdvisorService::Reader reader(service);
    const serve::Advice a = reader.advise(keys[k]);
    const core::CostEvaluation& c = planner.current().choice;
    if (planner.refits() != predicted) {
      mismatch[k] = "refit count " + std::to_string(planner.refits()) +
                    " != predicted " + std::to_string(predicted);
    } else if (!a.ready || a.kind != c.kind || a.t0 != c.t0 ||
               a.t_inf != c.t_inf || a.b != c.b ||
               a.expectation != c.expectation ||
               a.delta_cost != c.delta_cost ||
               a.drifted != planner.drifted()) {
      mismatch[k] = "published advice differs from a fresh planner's";
    } else if (!feasible(a)) {
      mismatch[k] = "infeasible advice";
    }
  };
  std::vector<std::thread> workers;
  const std::size_t n_threads = 4;
  for (std::size_t t = 0; t < n_threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t k = t; k < keys.size(); k += n_threads) check_key(k);
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    result.check(mismatch[k].empty(), "advisor key " + keys[k].vo + "/" +
                                          keys[k].site + "/" +
                                          keys[k].user_class + ": " +
                                          mismatch[k]);
  }
}

}  // namespace

RunResult run_advisor(const RunOptions& options) {
  RunResult result;
  // About 115 batches a round: p90 keeps 11 beyond it in every round. The
  // median over rounds keeps a slow spell of the host in one round from
  // setting the whole run's tail.
  result.tail_quantile = 0.90;
  const serve::AdvisorConfig config = service_config();
  const std::vector<serve::AdvisorKey> keys = make_keys();

  std::vector<double> round_s, refit_calls, swaps, ready_frac, lookups,
      snapshot_keys;
  std::uint64_t op = 0;
  const Clock::time_point begin = Clock::now();
  for (std::size_t round = 0;; ++round) {
    // --- setup: stream, service, warm-up until every key is ready --------
    // The warm-up ingest also serves as the workload's warm-up: it runs
    // the refit and publish paths before any timing starts.
    const Clock::time_point setup_start = Clock::now();
    const std::vector<Observation> stream =
        make_stream(options.seed, config.planner.timeout, keys.size());
    serve::AdvisorService service(config);
    std::vector<std::size_t> seen(keys.size(), 0);
    std::size_t ready_keys = 0;
    std::size_t next = 0;
    while (ready_keys < keys.size()) {
      const Observation& o = stream[next++];
      if (o.completed) {
        service.ingest(keys[o.key], o.latency);
      } else {
        service.ingest_outlier(keys[o.key]);
      }
      if (++seen[o.key] == config.planner.min_observations) ++ready_keys;
    }
    (void)service.refresh_now();
    const double setup = seconds_since(setup_start);

    // --- timed phase: writer ingests and publishes, reader looks up -------
    std::atomic<bool> started{false};
    std::atomic<bool> stop{false};
    ReaderReport reader;
    std::thread reader_thread([&] {
      read_loop(service, keys, started, stop, reader);
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    const std::uint64_t swaps_before = service.stats().swaps;
    std::size_t refits = 0;
    const Clock::time_point run_start = Clock::now();
    {
      const Span stream_span("advisor.stream", op);
      std::size_t since_publish = 0;
      for (std::size_t i = next; i < stream.size(); ++i) {
        const Observation& o = stream[i];
        const bool refit = triggers_refit(++seen[o.key], config.planner);
        refits += refit ? 1 : 0;
        {
          const Span s(refit ? "online.refit" : "serve.ingest", op);
          if (o.completed) {
            service.ingest(keys[o.key], o.latency);
          } else {
            service.ingest_outlier(keys[o.key]);
          }
        }
        if (++since_publish == kPublishEvery || i + 1 == stream.size()) {
          const Span s("serve.swap", op);
          (void)service.refresh_now();
          since_publish = 0;
        }
      }
    }
    const double run = seconds_since(run_start);
    stop.store(true, std::memory_order_release);
    reader_thread.join();
    ++op;

    const serve::AdvisorStats stats = service.stats();
    round_s.push_back(seconds_since(setup_start));
    const bool last = round + 1 >= kMinRounds &&
                      seconds_since(begin) + median(round_s) > options.seconds;
    if (last) check_against_fresh_planners(service, keys, stream, result);

    result.setup_s.push_back(setup);
    result.run_s.push_back(run);
    result.ops_per_s.push_back(static_cast<double>(reader.lookups) /
                               reader.active_s);
    result.op_us.insert(result.op_us.end(), reader.batch_us.begin(),
                        reader.batch_us.end());
    result.round_tail_us.push_back(
        quantile(reader.batch_us, result.tail_quantile));
    result.attempted += reader.lookups;
    result.check(reader.lookups > 0, "advisor: reader made no lookup");
    result.check(reader.torn == 0, "advisor: " + std::to_string(reader.torn) +
                                       " torn lookups");
    result.check(reader.backwards == 0,
                 "advisor: generation went backwards " +
                     std::to_string(reader.backwards) + " times");
    result.check(reader.not_ready == 0,
                 "advisor: " + std::to_string(reader.not_ready) +
                     " lookups returned the fallback after set-up");
    result.check(reader.infeasible == 0,
                 "advisor: " + std::to_string(reader.infeasible) +
                     " lookups returned infeasible advice");
    refit_calls.push_back(static_cast<double>(refits));
    swaps.push_back(static_cast<double>(stats.swaps - swaps_before));
    lookups.push_back(static_cast<double>(reader.lookups));
    ready_frac.push_back(
        static_cast<double>(reader.lookups - reader.not_ready) /
        static_cast<double>(reader.lookups));
    snapshot_keys.push_back(static_cast<double>(service.health().keys));
    if (last) break;
  }

  if (options.trace) {
    const auto totals = Tracer::instance().totals();
    const LayerTotals& writer = totals.at("advisor.stream");
    result.layer_base = "writer thread time of the timed phases";
    result.layer_base_s = writer.total_s;
    result.layers = {
        {"online.refit_us", self_us(totals, "online.refit"), "us"},
        {"online.refits", median(refit_calls), "count"},
        {"serve.ingest_us", self_us(totals, "serve.ingest"), "us"},
        {"serve.swap_us", self_us(totals, "serve.swap"), "us"},
        {"serve.swaps", median(swaps), "count"},
        {"serve.snapshot_keys", median(snapshot_keys), "count"},
        {"serve.ready_frac", median(ready_frac), "ratio"},
        {"serve.lookups", median(lookups), "count"},
        {"trace.coverage", 1.0 - writer.self_s / writer.total_s, "ratio"},
    };
  }
  result.notes.push_back(
      "advisor: " + std::to_string(keys.size()) + " keys x " +
      std::to_string(kPerKey) + " observations, publish every " +
      std::to_string(kPublishEvery) + ", " +
      std::to_string(result.run_s.size()) + " rounds");
  return result;
}

}  // namespace perfbench
