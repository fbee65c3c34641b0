#pragma once

// Streaming campaign aggregation: constant-memory folds and the sink
// interface the campaign runner drives.
//
// The buffer-then-fold path (materialize every CellResult, aggregate at
// the end) costs O(cells) memory — prohibitive at the 10^6–10^8 cells the
// million-user studies need. This header replaces it with fold-as-you-go:
//
//   MomentFold     — one metric's streaming moments (Kahan/Neumaier sum
//                    for the mean, Welford M2 for the stderr, min/max);
//   AggregateFold  — per-(scenario, strategy, metric) folds fed in
//                    ascending flat order, emitting one AggregateRow as
//                    each group's last replication lands;
//   CampaignSink   — the runner-facing consumer interface. The runner
//                    guarantees ascending flat-order delivery (a bounded
//                    reorder window covers out-of-order completion), so
//                    every fold is schedule-independent and the streamed
//                    output stays byte-identical at any thread count;
//   CollectSink    — the old in-memory path as one sink implementation
//                    (small campaigns, and the equivalence oracle);
//   FoldSink       — O(groups) summary, no per-cell storage;
//   JsonStreamSink — the canonical campaign JSON written incrementally,
//                    byte-identical to CampaignResult::write_json.
//
// Determinism survives the fold rework because both the in-memory and the
// streamed paths now run the *same* accumulation code in the same flat
// order: Kahan compensation is deterministic for a fixed addition order,
// and the runner fixes that order regardless of thread count.

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace gridsub::exp {

/// Streaming moments of one metric: compensated mean, single-pass
/// stderr-of-the-mean (Welford), and running min/max. Deterministic for a
/// fixed add() order.
class MomentFold {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  /// Kahan-compensated mean (0 before the first add).
  [[nodiscard]] double mean() const;
  /// Sample stderr of the mean, sqrt(M2 / (n-1) / n); 0 for n < 2.
  [[nodiscard]] double sem() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  void reset();

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;           // Neumaier running sum ...
  double compensation_ = 0.0;  // ... and its correction term
  double welford_mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Folds cells delivered in ascending flat order into per-(scenario,
/// strategy) AggregateRows, one MomentFold per metric, finalizing each row
/// as its last replication arrives. Memory is O(metrics) for the open
/// group plus O(groups) for finished rows — never O(cells).
class AggregateFold {
 public:
  explicit AggregateFold(CampaignAxes axes);

  /// Folds the next cell. Cells must arrive in ascending flat order with
  /// no gaps; metric names must match within a group (std::logic_error
  /// otherwise, same contract as CampaignResult). Returns a pointer to
  /// the freshly finalized row when this cell closed its group, nullptr
  /// otherwise.
  const AggregateRow* add(const CellResult& cell);

  [[nodiscard]] const CampaignAxes& axes() const { return axes_; }
  [[nodiscard]] std::size_t folded() const { return folded_; }
  [[nodiscard]] const std::vector<AggregateRow>& rows() const {
    return rows_;
  }
  [[nodiscard]] std::vector<AggregateRow> take_rows() {
    return std::move(rows_);
  }

 private:
  CampaignAxes axes_;
  std::size_t folded_ = 0;  ///< cells folded so far == expected next flat
  std::vector<std::string> names_;     ///< metric names of the open group
  std::vector<MomentFold> open_;       ///< one fold per metric
  std::vector<AggregateRow> rows_;
};

/// Consumer of a campaign's cells, driven by CampaignRunner. The runner
/// calls begin() once, then on_cell() for every cell this process holds
/// (resumed and freshly evaluated alike) in strictly ascending flat
/// order — out-of-order completions are held back in a bounded reorder
/// window — then end() once after the last cell. All three are invoked
/// from worker threads but never concurrently (the runner serializes
/// deliveries under its own lock).
class CampaignSink {
 public:
  virtual ~CampaignSink() = default;
  virtual void begin(const CampaignAxes& axes);
  virtual void on_cell(const CellResult& cell) = 0;
  virtual void end();
};

/// Buffers every cell and produces the classic in-memory CampaignResult.
/// O(cells) memory — the small-campaign default and the oracle the
/// streamed sinks are tested against.
class CollectSink final : public CampaignSink {
 public:
  void begin(const CampaignAxes& axes) override;
  void on_cell(const CellResult& cell) override;

  /// The collected result; call once, after the run.
  [[nodiscard]] CampaignResult take();

 private:
  CampaignAxes axes_;
  std::vector<CellResult> cells_;
};

/// Folds cells into per-group aggregates as they stream past. O(groups)
/// memory.
class FoldSink final : public CampaignSink {
 public:
  void begin(const CampaignAxes& axes) override;
  void on_cell(const CellResult& cell) override;

  /// The aggregate summary; call once, after the run.
  [[nodiscard]] CampaignSummary take();

 private:
  std::optional<AggregateFold> fold_;
};

/// Streams the canonical campaign JSON — byte-identical to
/// CampaignResult::write_json — to an ostream while folding aggregates,
/// without ever holding more than the open group. The stream must outlive
/// the sink; end() flushes but does not close it. Write failures raise
/// std::runtime_error at the next delivery.
class JsonStreamSink final : public CampaignSink {
 public:
  explicit JsonStreamSink(std::ostream& os);

  void begin(const CampaignAxes& axes) override;
  void on_cell(const CellResult& cell) override;
  void end() override;

  /// The aggregate summary folded alongside the JSON; call after end().
  [[nodiscard]] CampaignSummary take();

 private:
  std::ostream* os_;
  std::optional<AggregateFold> fold_;
  bool ended_ = false;
};

namespace detail {

// Shared emitters for the canonical campaign JSON, used by both
// CampaignResult::write_json (buffered) and JsonStreamSink (streamed) so
// byte-identity between the two paths holds by construction.
void write_campaign_json_prefix(std::ostream& os, const CampaignAxes& axes);
void write_campaign_json_cell(std::ostream& os, const CampaignAxes& axes,
                              const CellResult& cell, bool last);
void write_campaign_json_aggregates(std::ostream& os,
                                    const CampaignAxes& axes,
                                    const std::vector<AggregateRow>& rows);

}  // namespace detail

}  // namespace gridsub::exp
