// Stable output schemas: the CLI's CSV column set and the run-report
// JSON's top-level key set live here, in one place, so the writers and
// the golden-field tests agree by construction.  Any change to these
// lists is a schema change: bump kRunReportSchemaVersion and update the
// golden test deliberately.
#pragma once

#include <string>
#include <vector>

namespace nustencil::metrics {

/// Version stamped into every run-report document ("schema_version").
/// v2: added the top-level "sched" section (work-stealing statistics)
/// and config.schedule.
/// v3: added the top-level "provenance" section (git SHA, compiler,
/// flags, build type, machine conf) and the "prof" section (per-span
/// attribution: exact counter totals, stragglers with verdicts,
/// roofline scatter).
/// v4: added the top-level "stats" section (multi-rep robust summaries
/// written when the CLI runs with --reps=N; empty object otherwise).
/// v5: added the top-level "hw" section (measured hardware counters:
/// per-thread raw totals and attributed span sums, multiplexing scaling
/// factors, per-event availability, degradation status + reason, and
/// the simulated-vs-measured validation when both sides ran).
/// v6: added the top-level "timeseries" section (downsampled live
/// telemetry rings: shared sample-time axis, per-thread throughput and
/// locality series, stall-event count; enabled only when the run sampled
/// with --telemetry=on).
/// v7: removed the top-level "gauges" section (copies of the result,
/// traffic, phases, cache and hw sections) and the "sched/*" keys of
/// "counters" (the "sched" section carries them).
/// v8: removed the top-level "timeseries" section (the live-telemetry
/// sampler that filled it is gone).
/// The reader (nustencil_report) stays forward-tolerant: any schema >= 1
/// parses, absent sections are skipped.
inline constexpr int kRunReportSchemaVersion = 8;

/// The fixed leading CSV columns of the nustencil CLI summary table
/// (before the detail_* and phase columns).
const std::vector<std::string>& csv_summary_columns();

/// The phase-breakdown columns appended when phase metrics are on.
const std::vector<std::string>& csv_phase_columns();

/// Column name of a scheme-reported detail value.
std::string csv_detail_column(const std::string& key);

/// Top-level keys of the run-report JSON document, in emission order.
const std::vector<std::string>& run_report_top_level_keys();

}  // namespace nustencil::metrics
