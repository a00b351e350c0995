// Live telemetry: a background sampler thread that snapshots the run's
// live counters into fixed-capacity time-series rings while the workers
// execute.
//
// The sources are the run's prof::CounterShard (the same rows the
// per-span sampler reads), the ThreadRecorder phase totals, the TaskPool's
// per-thread steal counts and hwc::ThreadSet::sample.  Every value the
// sampler reads concurrently is a relaxed atomic written by one thread,
// so telemetry is a race-free read-side observer.  Samples are
// per-thread-coherent but not globally atomic (see DESIGN.md), which is
// fine for monitoring.
//
// On top of the rings ride: an OpenMetrics textfile rewritten atomically
// each tick, an append-only JSONL event log (samples plus run start/end,
// layer transitions, steal bursts, hw degradation, stalls), the stall
// watchdog, and the schema-v6 "timeseries" report section.  The sampler
// also drives the --progress heartbeat, so there is exactly one periodic
// snapshot path in the system.
//
// The disabled path costs literally zero: RunConfig::telemetry is null,
// no Sampler is constructed, and every hook is an existing null check.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metrics/run_report.hpp"
#include "prof/progress.hpp"
#include "telemetry/events.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/watchdog.hpp"
#include "trace/trace.hpp"

namespace nustencil::sched {
class TaskPool;
}
namespace nustencil::threading {
class AbortToken;
}

namespace nustencil::telemetry {

/// Case-insensitive "on" / "off"; throws a one-line Error otherwise.
bool parse_telemetry_enabled(const std::string& text);

struct Config {
  bool sampling = true;    ///< false = heartbeat-only mode (no rings/export)
  double interval_s = 0.1; ///< sampling cadence
  std::size_t ring_capacity = 4096;  ///< rows retained per run
  std::string label;                 ///< run label for log events
  std::string openmetrics_path;      ///< empty = no OpenMetrics export
  std::string log_path;              ///< empty = no JSONL event log
  int watchdog_stall_intervals = 0;  ///< 0 = watchdog off
  WatchdogAction watchdog_action = WatchdogAction::Warn;
  /// Tests: no background thread; the caller drives sample_once() with a
  /// fake clock for deterministic rings.
  bool manual = false;
};

/// The run's snapshot sources, bound by RunSupport when the run starts.
/// The sampler only reads them.
struct RunSources {
  long timesteps = 0;
  const prof::CounterShard* counters = nullptr;     ///< required; one row per thread
  const sched::TaskPool* pool = nullptr;            ///< steal counts; null = static
  const trace::Trace* trace = nullptr;              ///< wait totals, spans
  threading::AbortToken* abort = nullptr;           ///< watchdog abort target
  std::function<void(int, trace::CounterSet&)> hw;  ///< measured counters
  std::string hw_status;  ///< "", "ok" or "degraded" (for the event log)
  std::string hw_reason;
};

class Sampler {
 public:
  /// `diag` receives watchdog stall dumps (std::cerr in production).
  explicit Sampler(const Config& cfg, std::ostream& diag = default_diag());
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  const Config& config() const { return cfg_; }

  /// Unifies the --progress heartbeat onto this sampler: every
  /// meter->interval_s() the meter renders the bound run's counter shard
  /// to its own stream, and end_run emits the " (final)" line.
  void attach_heartbeat(prof::ProgressMeter* meter);

  /// Binds the run's sources, resets the rings and watchdog, logs the
  /// run_start event and starts the background thread (unless manual).
  /// Called by RunSupport when RunConfig::telemetry is set.
  void begin_run(const RunSources& sources);

  /// Takes one sample at `t_ns` (nanoseconds since begin_run).  Public
  /// so tests can drive a fake clock; the background thread calls it on
  /// the real one.  Never call concurrently with the thread running.
  void sample_once(std::int64_t t_ns);

  /// Stops the thread, takes a closing sample, emits the heartbeat's
  /// final line and the run_end event.  The rings stay readable until
  /// the next begin_run.
  void end_run(double seconds, std::uint64_t updates);

  /// Joins the thread and forgets the sources (idempotent; also called
  /// by end_run and the destructor).  RunSupport calls this from its
  /// destructor so the sampler never dereferences dead instrumentation.
  void detach_run();

  std::uint64_t samples_taken() const;
  int stall_events() const;
  bool watchdog_aborted() const { return watchdog_aborted_; }
  const TimeSeriesStore* store() const { return store_ ? &*store_ : nullptr; }

  /// The schema-v6 report section: rings decimated to `max_points`.
  metrics::TimeseriesSection report_section(std::size_t max_points = 160) const;

  /// Background sampler threads ever spawned, process-wide.  The
  /// zero-cost-off test asserts this stays put across untelemetered runs.
  static std::uint64_t threads_started();

 private:
  static std::ostream& default_diag();

  void loop();
  void start_thread();
  void stop_thread();
  std::int64_t now_ns() const;
  int num_threads() const { return src_.counters->num_threads(); }
  void collect(std::vector<ThreadCumulative>& out);
  void export_openmetrics(std::int64_t t_ns,
                          const std::vector<ThreadCumulative>& cum,
                          const std::vector<double>& row);
  void handle_stalls(std::int64_t t_ns,
                     const std::vector<StallDiagnosis>& stalls);

  Config cfg_;
  std::ostream* diag_;

  // Heartbeat attachment (one periodic-snapshot path).
  prof::ProgressMeter* heartbeat_ = nullptr;

  // Run binding.
  RunSources src_;
  bool bound_ = false;
  std::chrono::steady_clock::time_point t0_{};
  std::optional<TimeSeriesStore> store_;
  std::optional<Watchdog> watchdog_;
  std::unique_ptr<EventLog> log_;

  // Sampler-thread-only tick state.
  std::uint64_t seq_ = 0;
  long last_layer_ = -1;
  std::uint64_t last_steals_ = 0;
  std::int64_t last_t_ns_ = 0;
  std::vector<ThreadCumulative> prev_;
  std::vector<std::array<std::uint64_t, trace::kNumPhases>> prev_spans_;
  bool openmetrics_failed_ = false;
  bool watchdog_aborted_ = false;
  bool suppress_watchdog_ = false;  ///< the closing sample skips the watchdog

  // Thread lifecycle.
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stopping_ = false;
};

/// Human-readable telemetry configuration for `nustencil --explain`.
std::string describe_telemetry(bool enabled, double interval_s,
                               const std::string& openmetrics_path,
                               const std::string& log_path,
                               int watchdog_stall_intervals,
                               WatchdogAction action);

}  // namespace nustencil::telemetry
