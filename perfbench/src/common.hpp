#pragma once

// Shared pieces of the gridsub end-to-end benchmark: the clock, the span
// tracer, order statistics, the per-run result and its JSON line.
//
// Every workload drives the library from outside: it times calls into the
// public functions of traces, model, core, sim, exp, parallel, online and
// serve. A traced run (--trace 1) additionally records one span around each
// of those calls and reports per-layer self times once the run has ended.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded span. `parent` indexes the same thread's buffer (-1 for a
/// root span); spans started on pool workers are roots of their thread.
struct SpanRecord {
  int name = 0;
  int parent = -1;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals derived from the spans once the run has ended.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed span durations
  double self_s = 0.0;   ///< durations minus same-thread child spans
};

/// In-memory span store. Disabled (every call a no-op) unless enabled by
/// --trace 1. Each thread appends to its own buffer; buffers are kept until
/// the run ends, then folded by name.
class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }

  /// Starts a span on the calling thread; returns its handle (-1 when
  /// tracing is off).
  int begin(const char* name, std::uint64_t op);
  void end(int handle);

  /// Self time, duration and count per span name, over every thread.
  [[nodiscard]] std::map<std::string, LayerTotals> totals() const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::vector<int> open;  ///< stack of open span indices
  };
  Buffer& local();
  int intern(const char* name);

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;  ///< guards buffers_ and names_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::string> names_;
};

/// RAII span: `Span s("core.tune", op);` around one library call.
class Span {
 public:
  Span(const char* name, std::uint64_t op)
      : handle_(Tracer::instance().begin(name, op)) {}
  ~Span() { Tracer::instance().end(handle_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int handle_;
};

// ---------------------------------------------------------------------------
// Statistics and results
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// Options common to every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for generated inputs
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload hands back to main().
struct RunResult {
  std::vector<std::string> failures;  ///< failed output checks
  /// Ops run. An op whose library call throws aborts the whole run (exit
  /// code 1, no result), so a printed result never has a failed op.
  std::uint64_t attempted = 0;
  std::vector<double> setup_s;     ///< one per round
  std::vector<double> run_s;       ///< timed phase, one per round
  std::vector<double> ops_per_s;   ///< one per round
  std::vector<double> op_us;       ///< every op latency (or batch mean)
  double tail_quantile = 0.9;      ///< percentile reported as op_tail_us
  /// When not empty, op_tail_us is the median of these per-round tails
  /// instead of tail_quantile of all ops pooled.
  std::vector<double> round_tail_us;
  std::vector<Metric> layers;      ///< per-layer metrics (traced run)
  std::string layer_base;          ///< what layer shares are shares of
  double layer_base_s = 0.0;
  std::vector<std::string> notes;  ///< human-readable lines before the JSON

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// The feasibility test every workload applies to a delayed (t0, t_inf):
/// 0 < t0 < t_inf <= 2·t0, with the relative 1e-9 past the t_inf = 2·t0
/// boundary that DelayedResubmission::feasible allows for roundoff.
[[nodiscard]] inline bool delayed_feasible(double t0, double t_inf) {
  return t0 > 0.0 && t0 < t_inf && t_inf <= 2.0 * t0 * (1.0 + 1e-9);
}

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Formats a double with all its digits (shortest round-trip form).
[[nodiscard]] std::string number(double v);

/// Mean self time per span of a name, in microseconds (0 when absent).
[[nodiscard]] double self_us(const std::map<std::string, LayerTotals>& t,
                             const std::string& name);

// Workloads ------------------------------------------------------------------

RunResult run_plan(const RunOptions& options);
RunResult run_crossweek(const RunOptions& options);
RunResult run_advisor(const RunOptions& options);

/// Hand-worked checks of the reference computations (reference.cpp);
/// returns the failures.
std::vector<std::string> reference_selftest();

}  // namespace perfbench
