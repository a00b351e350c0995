// Versioned JSON run report: one schema-stable document per run that
// consolidates the configuration, the machine description, every
// measurement source (NUMA traffic matrix + locality time-series, cache
// simulation hit rates, phase breakdown, registry counters) and the
// performance-model placement.  `nustencil --report=out.json` emits it;
// tools/nustencil_report renders it into an HTML/SVG dashboard; the
// bench/regress gate diffs selected fields against a committed baseline.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "common/types.hpp"
#include "hwc/group.hpp"
#include "metrics/registry.hpp"
#include "metrics/stats.hpp"
#include "numa/traffic.hpp"
#include "prof/attribution.hpp"
#include "sched/schedule.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace nustencil::metrics {

/// Performance-model placement of the run, plus the reference lines the
/// roofline panel draws it against (values in Gupdates/s per core at
/// each entry of `cores`).  Plain doubles so this header needs neither
/// perf nor schemes.
struct ModelSection {
  double gupdates_per_core = 0.0;
  double gflops_per_core = 0.0;
  double t_compute = 0.0;
  double t_llc = 0.0;
  double t_mem = 0.0;
  std::vector<int> cores;
  std::vector<double> peak_dp;
  std::vector<double> ll1band0c;
};

/// Everything write_run_report serialises.  Pointer members are optional
/// sections (omitted as empty objects when null) and are not owned.
struct RunReport {
  // config
  std::string scheme;
  std::string shape;         ///< "64x64x64"
  long timesteps = 0;
  int threads = 0;
  std::string kernel_policy;
  std::string kernel_variant;
  Index page_bytes = 0;
  unsigned seed = 0;
  std::string pin_policy;    ///< "compact" / "scatter"
  std::string schedule;      ///< "static" / "steal" / "steal_local"

  // build provenance (see common/provenance.hpp); machine_conf names the
  // simulated machine configuration the run was instrumented against
  std::string git_sha;
  std::string compiler;
  std::string compiler_flags;
  std::string build_type;
  std::string machine_conf;

  // machine the run was instrumented against
  const topology::MachineSpec* machine = nullptr;

  // results
  double seconds = 0.0;
  Index updates = 0;
  double gupdates_per_second = 0.0;
  std::optional<double> max_rel_diff;  ///< set when --verify ran

  numa::TrafficStats traffic;                       ///< empty when not instrumented
  const cachesim::HierarchyTraffic* cache = nullptr;  ///< null without cache sim
  Index cache_line_bytes = 0;
  trace::PhaseBreakdown phases;
  sched::SchedStats sched;  ///< enabled only under a stealing schedule
  const prof::ProfSummary* prof = nullptr;  ///< null without --trace/--report profiling
  const hwc::HwRunStats* hw = nullptr;  ///< null / disabled without --hw-counters
  std::optional<ModelSection> model;
  std::optional<StatsSection> stats;  ///< set when the run had --reps > 1
  const Registry* registry = nullptr;  ///< counters/histograms
};

/// Serialises the report as a schema-versioned JSON document (top-level
/// keys = schema::run_report_top_level_keys(), in order).
void write_run_report(const RunReport& report, std::ostream& os);

/// Writes to `path` (throws Error on I/O failure).
void write_run_report_file(const RunReport& report, const std::string& path);

/// The document as a string (tests, tools).
std::string run_report_json(const RunReport& report);

/// Human-readable description of the report configuration for
/// `nustencil --explain`.
std::string describe_report(const std::string& report_path, bool cache_sim);

}  // namespace nustencil::metrics
