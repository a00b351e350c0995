// Multi-rep statistical summaries for run reports: when the CLI runs a
// configuration --reps=N times it folds the noisy (time-derived) metrics
// into robust summaries — median, MAD, and a bootstrap-free confidence
// interval — that land in the report's "stats" section, so one run's
// wall clock carries its own spread.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace nustencil::metrics {

/// Robust summary of one metric over N repetitions.  The confidence
/// interval is the analytic normal approximation of the median's
/// sampling distribution, median +- z * sigma_hat / sqrt(n) with
/// sigma_hat = 1.4826 * MAD — no bootstrap resampling, so repeated
/// identical reps collapse to a zero-width interval.
struct RepSummary {
  int n = 0;
  double median = 0.0;
  double mad = 0.0;  ///< raw median absolute deviation (unscaled)
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// MAD-to-sigma consistency constant for normal data.
inline constexpr double kMadToSigma = 1.4826;
/// Two-sided ~95% interval.
inline constexpr double kCiZ = 1.96;

/// Summarises `values` (empty input -> all-zero summary with n = 0).
RepSummary summarize_reps(const std::vector<double>& values);

/// The run report's "stats" section: one RepSummary per noisy metric,
/// keyed by section/field names ("result/seconds", "phase/compute_s",
/// ...), in emission order.
struct StatsSection {
  int reps = 0;
  std::vector<std::pair<std::string, RepSummary>> metrics;

  void add(const std::string& name, const std::vector<double>& values);
};

}  // namespace nustencil::metrics
