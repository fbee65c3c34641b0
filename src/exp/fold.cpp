#include "exp/fold.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/json.hpp"

namespace gridsub::exp {

namespace json = core::json;

// ---------------------------------------------------------------------------
// MomentFold
// ---------------------------------------------------------------------------

void MomentFold::add(double x) {
  // Neumaier-compensated sum (numerics/kahan.hpp's recurrence, inlined so
  // the fold stays one cache line): correct even when the addend exceeds
  // the running sum in magnitude.
  const double t = sum_ + x;
  if (std::abs(sum_) >= std::abs(x)) {
    compensation_ += (sum_ - t) + x;
  } else {
    compensation_ += (x - t) + sum_;
  }
  sum_ = t;
  // Welford's single-pass M2 for the variance of the mean.
  ++n_;
  const double delta = x - welford_mean_;
  welford_mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - welford_mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double MomentFold::mean() const {
  if (n_ == 0) return 0.0;
  return (sum_ + compensation_) / static_cast<double>(n_);
}

double MomentFold::sem() const {
  if (n_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_ - 1) /
                   static_cast<double>(n_));
}

void MomentFold::reset() { *this = MomentFold(); }

// ---------------------------------------------------------------------------
// AggregateFold
// ---------------------------------------------------------------------------

AggregateFold::AggregateFold(CampaignAxes axes) : axes_(std::move(axes)) {
  axes_.validate();
  rows_.reserve(axes_.scenario_labels.size() * axes_.strategy_labels.size());
}

const AggregateRow* AggregateFold::add(const CellResult& cell) {
  if (cell.context.flat != folded_) {
    throw std::logic_error(
        "AggregateFold: cell " + std::to_string(cell.context.flat) +
        " delivered out of order (expected " + std::to_string(folded_) +
        ") — the reorder window must feed folds in flat order");
  }
  if (cell.context.replication == 0) {
    // First replication defines the group's metric schema.
    names_.clear();
    open_.assign(cell.metrics.size(), MomentFold());
    names_.reserve(cell.metrics.size());
    for (const auto& [name, value] : cell.metrics) names_.push_back(name);
  }
  const bool schema_matches = [&] {
    if (cell.metrics.size() != names_.size()) return false;
    for (std::size_t m = 0; m < names_.size(); ++m) {
      if (cell.metrics[m].first != names_[m]) return false;
    }
    return true;
  }();
  if (!schema_matches) {
    throw std::logic_error(
        "campaign '" + axes_.name + "': replications of group (" +
        axes_.scenario_labels[cell.context.scenario] + ", " +
        axes_.strategy_labels[cell.context.strategy] +
        ") emitted mismatched metric names");
  }
  for (std::size_t m = 0; m < names_.size(); ++m) {
    open_[m].add(cell.metrics[m].second);
  }
  ++folded_;
  if (cell.context.replication + 1 < axes_.replications) return nullptr;

  AggregateRow row;
  row.scenario = cell.context.scenario;
  row.strategy = cell.context.strategy;
  row.replications = axes_.replications;
  row.metrics.reserve(names_.size());
  for (std::size_t m = 0; m < names_.size(); ++m) {
    AggregateRow::Metric metric;
    metric.name = names_[m];
    metric.mean = open_[m].mean();
    metric.sem = open_[m].sem();
    metric.min = open_[m].min();
    metric.max = open_[m].max();
    row.metrics.push_back(std::move(metric));
  }
  rows_.push_back(std::move(row));
  return &rows_.back();
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

void CampaignSink::begin(const CampaignAxes&) {}
void CampaignSink::end() {}

void CollectSink::begin(const CampaignAxes& axes) {
  axes_ = axes;
  cells_.clear();
  cells_.reserve(axes.cell_count());
}

void CollectSink::on_cell(const CellResult& cell) { cells_.push_back(cell); }

CampaignResult CollectSink::take() {
  return CampaignResult(std::move(axes_), std::move(cells_));
}

void FoldSink::begin(const CampaignAxes& axes) { fold_.emplace(axes); }

void FoldSink::on_cell(const CellResult& cell) {
  if (!fold_) throw std::logic_error("FoldSink: on_cell before begin");
  fold_->add(cell);
}

CampaignSummary FoldSink::take() {
  if (!fold_) throw std::logic_error("FoldSink: take before begin");
  CampaignSummary summary;
  summary.axes = fold_->axes();
  summary.rows = fold_->take_rows();
  return summary;
}

JsonStreamSink::JsonStreamSink(std::ostream& os) : os_(&os) {}

void JsonStreamSink::begin(const CampaignAxes& axes) {
  fold_.emplace(axes);
  detail::write_campaign_json_prefix(*os_, axes);
  if (!*os_) throw std::runtime_error("JsonStreamSink: write failed");
}

void JsonStreamSink::on_cell(const CellResult& cell) {
  if (!fold_) throw std::logic_error("JsonStreamSink: on_cell before begin");
  const CampaignAxes& axes = fold_->axes();
  detail::write_campaign_json_cell(*os_, axes, cell,
                                   cell.context.flat + 1 ==
                                       axes.cell_count());
  fold_->add(cell);
  if (!*os_) throw std::runtime_error("JsonStreamSink: write failed");
}

void JsonStreamSink::end() {
  if (!fold_) throw std::logic_error("JsonStreamSink: end before begin");
  detail::write_campaign_json_aggregates(*os_, fold_->axes(), fold_->rows());
  os_->flush();
  if (!*os_) throw std::runtime_error("JsonStreamSink: write failed");
  ended_ = true;
}

CampaignSummary JsonStreamSink::take() {
  if (!ended_) throw std::logic_error("JsonStreamSink: take before end");
  CampaignSummary summary;
  summary.axes = fold_->axes();
  summary.rows = fold_->take_rows();
  return summary;
}

// ---------------------------------------------------------------------------
// Canonical campaign JSON, emitted piecewise
// ---------------------------------------------------------------------------

namespace detail {

void write_campaign_json_prefix(std::ostream& os, const CampaignAxes& axes) {
  os << "{\n  \"schema\": \"gridsub-campaign-v1\",\n  \"name\": ";
  json::escape(os, axes.name);
  os << ",\n  \"root_seed\": " << axes.root_seed;
  os << ",\n  \"axes\": {";
  json::escape(os, axes.scenario_axis);
  os << ": [";
  for (std::size_t i = 0; i < axes.scenario_labels.size(); ++i) {
    if (i > 0) os << ", ";
    json::escape(os, axes.scenario_labels[i]);
  }
  os << "], ";
  json::escape(os, axes.strategy_axis);
  os << ": [";
  for (std::size_t i = 0; i < axes.strategy_labels.size(); ++i) {
    if (i > 0) os << ", ";
    json::escape(os, axes.strategy_labels[i]);
  }
  os << "], \"replications\": " << axes.replications << "},\n";
  os << "  \"cells\": [\n";
}

void write_campaign_json_cell(std::ostream& os, const CampaignAxes& axes,
                              const CellResult& cell, bool last) {
  os << "    {\"scenario\": ";
  json::escape(os, axes.scenario_labels[cell.context.scenario]);
  os << ", \"strategy\": ";
  json::escape(os, axes.strategy_labels[cell.context.strategy]);
  os << ", \"replication\": " << cell.context.replication;
  os << ", \"seed\": " << cell.context.seed << ", \"metrics\": {";
  for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
    if (m > 0) os << ", ";
    json::escape(os, cell.metrics[m].first);
    os << ": ";
    json::number(os, cell.metrics[m].second);
  }
  os << "}}" << (last ? "" : ",") << "\n";
}

void write_campaign_json_aggregates(std::ostream& os,
                                    const CampaignAxes& axes,
                                    const std::vector<AggregateRow>& rows) {
  os << "  ],\n  \"aggregates\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& row = rows[i];
    os << "    {\"scenario\": ";
    json::escape(os, axes.scenario_labels[row.scenario]);
    os << ", \"strategy\": ";
    json::escape(os, axes.strategy_labels[row.strategy]);
    os << ", \"replications\": " << row.replications << ", \"metrics\": {";
    for (std::size_t m = 0; m < row.metrics.size(); ++m) {
      if (m > 0) os << ", ";
      json::escape(os, row.metrics[m].name);
      os << ": {\"mean\": ";
      json::number(os, row.metrics[m].mean);
      os << ", \"stderr\": ";
      json::number(os, row.metrics[m].sem);
      os << "}";
    }
    os << "}}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace detail

}  // namespace gridsub::exp
