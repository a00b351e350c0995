// Golden-field schema tests: the CLI's CSV column set and the run-report
// JSON's top-level keys are output contracts scripts depend on.  These
// tests pin the exact lists; changing either is a deliberate schema
// change (bump kRunReportSchemaVersion in src/metrics/schema.hpp and
// update the goldens here in the same commit).
#include <gtest/gtest.h>

#include "metrics/json.hpp"
#include "metrics/run_report.hpp"
#include "metrics/schema.hpp"
#include "topology/machine.hpp"

namespace nustencil::metrics {
namespace {

TEST(Schema, CsvSummaryColumnsAreGolden) {
  const std::vector<std::string> golden = {"threads",    "seconds",
                                          "Gupdates/s", "GFLOPS",
                                          "locality %", "max rel diff"};
  EXPECT_EQ(csv_summary_columns(), golden);
}

TEST(Schema, CsvPhaseColumnsAreGolden) {
  const std::vector<std::string> golden = {"init_s", "compute_s",
                                          "barrier_wait_s", "spinflag_wait_s",
                                          "imbalance"};
  EXPECT_EQ(csv_phase_columns(), golden);
}

TEST(Schema, CsvDetailColumnPrefix) {
  EXPECT_EQ(csv_detail_column("tau"), "detail_tau");
}

TEST(Schema, RunReportTopLevelKeysAreGolden) {
  const std::vector<std::string> golden = {
      "schema_version", "generator", "provenance", "config",
      "machine",        "result",    "traffic",    "cache",
      "phases",         "sched",     "prof",       "hw",
      "model",          "stats",     "counters",   "histograms"};
  EXPECT_EQ(run_report_top_level_keys(), golden);
}

TEST(Schema, VersionIsPinned) {
  // Bumped deliberately whenever a golden list above changes.
  // v2: top-level "sched" section + config.schedule.
  // v3: top-level "provenance" and "prof" sections.
  // v4: top-level "stats" section (--reps summaries).
  // v5: top-level "hw" section (measured hardware counters).
  // v6: top-level "timeseries" section (live telemetry rings).
  // v7: no "gauges" section; no "sched/*" keys in "counters".
  // v8: no "timeseries" section.
  EXPECT_EQ(kRunReportSchemaVersion, 8);
}

TEST(Schema, EmittedDocumentMatchesDeclaredKeys) {
  // The writer's actual output must carry exactly the declared keys, in
  // order, even for a minimal report with every optional section empty.
  const topology::MachineSpec machine = topology::xeonX7550();
  RunReport rep;
  rep.scheme = "NaiveSSE";
  rep.shape = "4x4x4";
  rep.machine = &machine;
  const JsonValue doc = parse_json(run_report_json(rep));
  EXPECT_EQ(doc.keys(), run_report_top_level_keys());
}

}  // namespace
}  // namespace nustencil::metrics
