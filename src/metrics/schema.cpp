#include "metrics/schema.hpp"

namespace nustencil::metrics {

const std::vector<std::string>& csv_summary_columns() {
  static const std::vector<std::string> cols = {
      "threads", "seconds", "Gupdates/s", "GFLOPS", "locality %", "max rel diff"};
  return cols;
}

const std::vector<std::string>& csv_phase_columns() {
  static const std::vector<std::string> cols = {
      "init_s", "compute_s", "barrier_wait_s", "spinflag_wait_s", "imbalance"};
  return cols;
}

std::string csv_detail_column(const std::string& key) { return "detail_" + key; }

const std::vector<std::string>& run_report_top_level_keys() {
  static const std::vector<std::string> keys = {
      "schema_version", "generator", "provenance", "config",     "machine",
      "result",         "traffic",   "cache",      "phases",     "sched",
      "prof",           "hw",        "model",      "stats",      "counters",
      "histograms"};
  return keys;
}

}  // namespace nustencil::metrics
