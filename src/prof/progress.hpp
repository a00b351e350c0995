// The --progress heartbeat: one background thread that renders a line
// ("layer N | X.X M up/s | locality Y.Y%") from the run's live
// CounterShard every interval, plus a closing " (final)" line once the
// workers have joined.
//
// The meter holds no counters of its own: every beat sums the shard's
// rows with relaxed loads, so the heartbeat never perturbs the measured
// run.  RunSupport starts the thread when RunConfig::progress is set
// and stops it in finish(); without a meter no thread exists.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "prof/counter_shard.hpp"

namespace nustencil::prof {

class ProgressMeter {
 public:
  /// Heartbeats for one run render onto `os` every `interval_s` seconds.
  /// `label` prefixes every line; `total_updates` (0 = unknown) adds a
  /// percent-done column.  The rate window starts now.
  ProgressMeter(double interval_s, std::ostream& os, std::string label = {},
                std::uint64_t total_updates = 0);
  ~ProgressMeter();

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Starts the heartbeat thread on `counters`, which must outlive the
  /// matching stop().  One run at a time.
  void start(const CounterShard& counters);

  /// Joins the heartbeat thread; with `final_line`, then emits the
  /// " (final)" line, so runs shorter than the interval still report.
  /// A no-op when not started.
  void stop(bool final_line = true);

  /// One heartbeat line onto the configured stream; `final` appends the
  /// " (final)" marker.  Call from one thread at a time (the rate window
  /// is stateful).
  void emit(const CounterShard& counters, bool final = false);

  /// The current heartbeat line (sampled now); exposed for tests.
  std::string render_line(const CounterShard& counters);

  /// Heartbeat threads ever started, process-wide (a run without a meter
  /// must leave this unchanged).
  static std::uint64_t threads_started();

 private:
  void loop();

  double interval_s_;
  std::ostream* os_;
  std::string label_;
  std::uint64_t total_updates_;

  // Rate window state (heartbeat thread, or the caller after stop()).
  std::uint64_t last_updates_ = 0;
  std::chrono::steady_clock::time_point last_beat_ = std::chrono::steady_clock::now();

  // Heartbeat thread and what it reads.
  const CounterShard* counters_ = nullptr;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;  ///< guarded by mutex_
  std::thread thread_;
};

}  // namespace nustencil::prof
