// Performance-trajectory database: an append-only JSON history of the
// headline metrics of bench/regress (and optionally bench/kernel_report)
// runs, keyed by the provenance block (git SHA, compiler, build type,
// machine conf).  bench/trajectory appends entries and runs the
// noise-aware CI gate: a candidate fails only when a gated metric
// regresses beyond both the trailing window's own noise band (MAD-based)
// and a minimum relative effect — never on exact-match float compares.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "metrics/json.hpp"

namespace nustencil::metrics {

inline constexpr int kTrajectorySchemaVersion = 1;

/// One run's headline metrics plus the provenance that produced them.
struct TrajectoryEntry {
  std::string git_sha;
  std::string compiler;
  std::string build_type;
  std::string machine_conf;
  std::vector<std::pair<std::string, double>> metrics;  ///< insertion order

  const double* find(const std::string& name) const;
};

struct TrajectoryDb {
  std::vector<TrajectoryEntry> entries;
};

/// Loads `path`; a missing file is an empty history (day-one friendly),
/// a malformed file throws Error.
TrajectoryDb load_trajectory(const std::string& path);

void save_trajectory(const TrajectoryDb& db, const std::string& path);
std::string trajectory_json(const TrajectoryDb& db);
TrajectoryDb parse_trajectory(const JsonValue& doc);

/// Builds a candidate entry from a bench/regress output document:
/// "regress/<scheme>_e<edge>/{model_gup_core,locality,seconds}" metrics
/// plus the provenance block when present.
TrajectoryEntry entry_from_regress(const JsonValue& regress_doc);

/// Folds a bench/kernel_report document's headline ratio into `entry`
/// ("kernel/speedup_best_vs_scalar").
void merge_kernel_report(TrajectoryEntry& entry, const JsonValue& kernel_doc);

/// Folds a bench/validate_model document's simulated-vs-measured rank
/// correlation into `entry` ("validate/rank_correlation", plus the span
/// count).  Informational only — never gated: the correlation depends on
/// the host's PMU and is absent entirely on degraded hosts, so gating it
/// would make CI outcomes depend on runner hardware.  A degraded
/// document (no correlation) folds nothing.
void merge_validate_model(TrajectoryEntry& entry, const JsonValue& validate_doc);

/// Folds a bench/telemetry_overhead document's headline ratio into
/// `entry` ("telemetry/overhead_pct").  Informational only — never
/// gated: it is a ratio of wall clocks on a shared runner, so the gate
/// would fire on scheduler noise.  The zero-cost off contract is
/// enforced by the tool itself (nonzero exit), not by the gate.
void merge_telemetry_overhead(TrajectoryEntry& entry,
                              const JsonValue& overhead_doc);

/// True for metrics where larger is better (throughput, locality,
/// speedups); wall-clock "/seconds" metrics are lower-is-better.
bool higher_is_better(const std::string& metric);

/// Per-metric minimum relative effect: deterministic metrics use the
/// caller's min_effect_rel, host-sensitive kernel speedups get a wide
/// band, and wall-clock seconds are informational only (never gated) —
/// wall clock is measured with reps by bench/perf_ledger.
bool metric_is_gated(const std::string& metric);
double metric_min_effect(const std::string& metric, double base_min_effect);

struct GateOptions {
  int window = 5;            ///< trailing entries per metric
  double min_effect_rel = 0.05;
  double mad_sigmas = 3.0;   ///< noise band half-width in robust sigmas
};

/// One gated metric's comparison against its trailing window.
struct GateFinding {
  std::string metric;
  double candidate = 0.0;
  double window_median = 0.0;
  double window_mad = 0.0;
  int window_n = 0;
  double rel_delta = 0.0;  ///< (candidate - median) / |median|
  bool gated = true;
  bool regression = false;
};

struct GateResult {
  std::vector<GateFinding> findings;
  int regressions = 0;
  bool pass = true;
};

/// Gates `candidate` against the trailing window of `db`: for each
/// candidate metric with history, fail only when the move is in the
/// worse direction AND beyond max(min_effect * |median|,
/// mad_sigmas * 1.4826 * MAD).  Metrics with no history pass trivially.
GateResult gate_candidate(const TrajectoryDb& db,
                          const TrajectoryEntry& candidate,
                          const GateOptions& options = {});

/// One line per finding plus a PASS/FAIL summary for CI logs.
std::string format_gate_console(const GateResult& result);

}  // namespace nustencil::metrics
