#pragma once

// (x, y) series output for the paper's figures.
//
// Figures are regenerated as gnuplot-style whitespace-separated columns
// (one block per labelled series), printed to the bench's stdout.

#include <iosfwd>
#include <string>
#include <vector>

namespace gridsub::report {

/// One labelled curve.
struct Series {
  std::string label;
  std::vector<double> x;
  std::vector<double> y;
};

/// A figure: several curves sharing axis labels.
class Figure {
 public:
  Figure(std::string title, std::string x_label, std::string y_label);

  /// Adds a curve; x and y must be the same length.
  void add(Series series);

  /// Convenience: adds a curve from parallel vectors.
  void add(const std::string& label, std::vector<double> x,
           std::vector<double> y);

  /// Prints "# <title>" then per-series blocks of "x y" lines, separated by
  /// blank lines (gnuplot's multi-block format).
  void print(std::ostream& os, int max_rows_per_series = -1) const;

  [[nodiscard]] const std::vector<Series>& series() const { return series_; }

 private:
  std::string title_;
  std::string x_label_;
  std::string y_label_;
  std::vector<Series> series_;
};

}  // namespace gridsub::report
