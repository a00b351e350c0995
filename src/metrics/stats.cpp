#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace nustencil::metrics {

RepSummary summarize_reps(const std::vector<double>& values) {
  RepSummary s;
  if (values.empty()) return s;
  s.n = static_cast<int>(values.size());
  s.median = nustencil::median(values);
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  std::vector<double> dev;
  dev.reserve(values.size());
  for (double v : values) dev.push_back(std::fabs(v - s.median));
  s.mad = nustencil::median(std::move(dev));
  const double half =
      kCiZ * kMadToSigma * s.mad / std::sqrt(static_cast<double>(s.n));
  s.ci_lo = s.median - half;
  s.ci_hi = s.median + half;
  return s;
}

void StatsSection::add(const std::string& name,
                       const std::vector<double>& values) {
  metrics.emplace_back(name, summarize_reps(values));
}

}  // namespace nustencil::metrics
