// coopcr/util/stats.hpp
//
// Statistics collection for the Monte Carlo harness.
//
// The paper reports, for each aggregate measurement, the mean plus the first
// and ninth decile and first and third quartile ("candlestick" plots, §5).
// `SampleSet` stores the raw replica measurements and produces that summary;
// `OnlineStats` provides mergeable Welford mean/variance for streaming
// accumulation inside the simulator (e.g. per-category node-seconds).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace coopcr {

/// Streaming mean / variance accumulator (Welford), mergeable across threads.
class OnlineStats {
 public:
  /// Add one observation.
  void add(double x);

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

  /// Number of observations.
  std::size_t count() const { return count_; }
  /// Arithmetic mean (0 if empty).
  double mean() const { return mean_; }
  /// Unbiased sample variance (0 if fewer than 2 observations).
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  /// Minimum observation (+inf if empty).
  double min() const { return min_; }
  /// Maximum observation (-inf if empty).
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_;
  double max_;

 public:
  OnlineStats();
};

/// Five-number candlestick summary matching the paper's plots:
/// first decile, first quartile, mean, third quartile, ninth decile.
struct Candlestick {
  double d1 = 0.0;    ///< 10th percentile
  double q1 = 0.0;    ///< 25th percentile
  double mean = 0.0;  ///< arithmetic mean (candle center in the paper)
  double median = 0.0;
  double q3 = 0.0;    ///< 75th percentile
  double d9 = 0.0;    ///< 90th percentile
  std::size_t n = 0;  ///< sample count

  /// Render as "mean [d1 q1 | q3 d9]" with the given precision.
  std::string to_string(int precision = 4) const;
};

/// Container of raw samples with quantile extraction.
///
/// Quantiles use linear interpolation between order statistics (type-7, the
/// common spreadsheet/NumPy default).
class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::vector<double> samples);

  /// Append one sample.
  void add(double x);
  /// Append all samples of `other`.
  void merge(const SampleSet& other);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const std::vector<double>& samples() const { return samples_; }

  double mean() const;
  double stddev() const;
  /// Interpolated quantile, `p` in [0, 1]. Throws on empty set.
  double quantile(double p) const;
  /// Five-number summary used by every figure.
  Candlestick candlestick() const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace coopcr
