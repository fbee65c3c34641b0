#pragma once

// Descriptive statistics.
//
// Reproduces the quantities of the paper's Table 1: per-trace mean and
// standard deviation of latency below the outlier timeout, the censored
// lower-bound mean ("mean with 10^5"), and outlier ratios.

#include <span>

namespace gridsub::stats {

/// Arithmetic mean; requires non-empty input.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); requires size >= 2.
double variance(std::span<const double> xs);

/// sqrt(variance).
double stddev(std::span<const double> xs);

/// Linear-interpolation sample quantile (R type-7). p in [0,1].
double quantile(std::span<const double> xs, double p);

/// Median (type-7 quantile at 0.5).
double median(std::span<const double> xs);

double min(std::span<const double> xs);
double max(std::span<const double> xs);

}  // namespace gridsub::stats
