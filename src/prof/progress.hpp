// The --progress heartbeat line renderer ("layer N | X.X M up/s |
// locality Y.Y%"), drawn from the run's live CounterShard.
//
// The meter holds no counters of its own: every beat sums the shard's
// rows with relaxed loads, so the heartbeat never perturbs the measured
// run.  There is exactly one periodic-snapshot thread in the system —
// the telemetry::Sampler drives emit() on its own cadence and hands over
// the shard it is bound to.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "prof/counter_shard.hpp"

namespace nustencil::prof {

class ProgressMeter {
 public:
  /// Heartbeats for one run render onto `os` every `interval_s` seconds
  /// (the caller that drives emit honours the interval; the meter
  /// validates it).  `label` prefixes every line; `total_updates` (0 =
  /// unknown) adds a percent-done column.  The rate window starts now.
  ProgressMeter(double interval_s, std::ostream& os, std::string label = {},
                std::uint64_t total_updates = 0);

  /// One heartbeat line onto the configured stream; `final` appends the
  /// " (final)" marker of the closing beat, so runs shorter than the
  /// interval still report.  Call from one driver thread only (the rate
  /// window is stateful).
  void emit(const CounterShard& counters, bool final = false);

  /// The current heartbeat line (sampled now); exposed for tests.
  std::string render_line(const CounterShard& counters);

  /// Configured heartbeat cadence.
  double interval_s() const { return interval_s_; }

 private:
  double interval_s_;
  std::ostream* os_;
  std::string label_;
  std::uint64_t total_updates_;

  // Rate window state (heartbeat driver thread only).
  std::uint64_t last_updates_ = 0;
  std::chrono::steady_clock::time_point last_beat_ = std::chrono::steady_clock::now();
};

}  // namespace nustencil::prof
