#include "metrics/trajectory.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "metrics/stats.hpp"

namespace nustencil::metrics {

namespace {

std::string str_or(const JsonValue* v, const char* fallback) {
  return v && v->type == JsonValue::Type::String ? v->string : fallback;
}

}  // namespace

const double* TrajectoryEntry::find(const std::string& name) const {
  for (const auto& [key, value] : metrics)
    if (key == name) return &value;
  return nullptr;
}

TrajectoryDb parse_trajectory(const JsonValue& doc) {
  TrajectoryDb db;
  const JsonValue* entries = doc.find("entries");
  NUSTENCIL_CHECK(entries && entries->is_array(),
                  "trajectory: document has no 'entries' array");
  for (const JsonValue& e : entries->array) {
    TrajectoryEntry entry;
    entry.git_sha = str_or(e.find("git_sha"), "");
    entry.compiler = str_or(e.find("compiler"), "");
    entry.build_type = str_or(e.find("build_type"), "");
    entry.machine_conf = str_or(e.find("machine_conf"), "");
    if (const JsonValue* metrics = e.find("metrics"))
      for (const auto& [name, v] : metrics->object)
        entry.metrics.emplace_back(name, v.num());
    db.entries.push_back(std::move(entry));
  }
  return db;
}

TrajectoryDb load_trajectory(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return TrajectoryDb{};  // day one: no history yet
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trajectory(parse_json(text.str()));
}

std::string trajectory_json(const TrajectoryDb& db) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", kTrajectorySchemaVersion);
  w.kv("generator", "bench/trajectory");
  w.key("entries").begin_array();
  for (const TrajectoryEntry& e : db.entries) {
    w.begin_object();
    w.kv("git_sha", e.git_sha);
    w.kv("compiler", e.compiler);
    w.kv("build_type", e.build_type);
    w.kv("machine_conf", e.machine_conf);
    w.key("metrics").begin_object();
    for (const auto& [name, value] : e.metrics) w.kv(name, value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

void save_trajectory(const TrajectoryDb& db, const std::string& path) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "trajectory: cannot open " + path);
  out << trajectory_json(db);
  NUSTENCIL_CHECK(out.good(), "trajectory: write failed for " + path);
}

TrajectoryEntry entry_from_regress(const JsonValue& regress_doc) {
  TrajectoryEntry entry;
  if (const JsonValue* prov = regress_doc.find("provenance")) {
    entry.git_sha = str_or(prov->find("git_sha"), "");
    entry.compiler = str_or(prov->find("compiler"), "");
    entry.build_type = str_or(prov->find("build_type"), "");
    entry.machine_conf = str_or(prov->find("machine_conf"), "");
  }
  if (entry.machine_conf.empty())
    entry.machine_conf = str_or(regress_doc.find("machine"), "");
  const JsonValue* cases = regress_doc.find("cases");
  NUSTENCIL_CHECK(cases && cases->is_array(),
                  "trajectory: regress document has no 'cases' array");
  for (const JsonValue& c : cases->array) {
    const std::string prefix =
        "regress/" + c.at("scheme").str() + "_e" +
        std::to_string(static_cast<long>(c.at("edge").num()));
    entry.metrics.emplace_back(prefix + "/model_gup_core",
                               c.at("model_gupdates_per_core").num());
    entry.metrics.emplace_back(prefix + "/locality", c.at("locality").num());
    entry.metrics.emplace_back(prefix + "/seconds", c.at("seconds").num());
  }
  return entry;
}

void merge_kernel_report(TrajectoryEntry& entry, const JsonValue& kernel_doc) {
  if (const JsonValue* ve = kernel_doc.find("vector_efficiency"))
    if (const JsonValue* s = ve->find("speedup_best_vs_scalar"))
      entry.metrics.emplace_back("kernel/speedup_best_vs_scalar", s->num());
}

bool higher_is_better(const std::string& metric) {
  const std::string suffix = "/seconds";
  return metric.size() < suffix.size() ||
         metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) !=
             0;
}

void merge_validate_model(TrajectoryEntry& entry,
                          const JsonValue& validate_doc) {
  const JsonValue* status = validate_doc.find("status");
  if (!status || status->str() != "ok") return;  // degraded host: nothing
  if (const JsonValue* r = validate_doc.find("rank_correlation"))
    entry.metrics.emplace_back("validate/rank_correlation", r->num());
  if (const JsonValue* n = validate_doc.find("n_spans"))
    entry.metrics.emplace_back("validate/n_spans", n->num());
}

void merge_telemetry_overhead(TrajectoryEntry& entry,
                              const JsonValue& overhead_doc) {
  if (const JsonValue* pct = overhead_doc.find("overhead_pct"))
    entry.metrics.emplace_back("telemetry/overhead_pct", pct->num());
}

bool metric_is_gated(const std::string& metric) {
  // "/seconds" is informational only; "validate/" correlations are
  // host-PMU-dependent (absent entirely on degraded runners) and
  // "telemetry/" overhead is a wall-clock ratio on a shared runner —
  // tracked for trend visibility, never gated.
  if (metric.rfind("validate/", 0) == 0) return false;
  if (metric.rfind("telemetry/", 0) == 0) return false;
  return higher_is_better(metric);
}

double metric_min_effect(const std::string& metric, double base_min_effect) {
  // Kernel speedups are real-host measurements: shared CI runners need a
  // wide band.  Everything else gated here is simulator-deterministic
  // (up to libm), so the caller's band applies.
  if (metric.rfind("kernel/", 0) == 0) return std::max(base_min_effect, 0.25);
  return base_min_effect;
}

GateResult gate_candidate(const TrajectoryDb& db,
                          const TrajectoryEntry& candidate,
                          const GateOptions& options) {
  GateResult result;
  for (const auto& [name, value] : candidate.metrics) {
    std::vector<double> history;
    for (const TrajectoryEntry& e : db.entries)
      if (const double* v = e.find(name)) history.push_back(*v);
    if (history.empty()) continue;  // no history: pass trivially
    if (static_cast<int>(history.size()) > options.window)
      history.erase(history.begin(),
                    history.end() - static_cast<std::ptrdiff_t>(options.window));

    GateFinding f;
    f.metric = name;
    f.candidate = value;
    f.window_n = static_cast<int>(history.size());
    f.window_median = nustencil::median(history);
    std::vector<double> dev;
    dev.reserve(history.size());
    for (double v : history) dev.push_back(std::fabs(v - f.window_median));
    f.window_mad = nustencil::median(std::move(dev));
    f.rel_delta = f.window_median == 0.0
                      ? 0.0
                      : (value - f.window_median) / std::fabs(f.window_median);
    f.gated = metric_is_gated(name);

    const double threshold =
        std::max(metric_min_effect(name, options.min_effect_rel) *
                     std::fabs(f.window_median),
                 options.mad_sigmas * kMadToSigma * f.window_mad);
    const double move = value - f.window_median;
    const bool worse = higher_is_better(name) ? move < 0.0 : move > 0.0;
    f.regression = f.gated && worse && std::fabs(move) > threshold;
    if (f.regression) ++result.regressions;
    result.findings.push_back(std::move(f));
  }
  result.pass = result.regressions == 0;
  return result;
}

std::string format_gate_console(const GateResult& result) {
  std::ostringstream os;
  os.precision(6);
  for (const GateFinding& f : result.findings) {
    std::ostringstream rels;
    rels.precision(1);
    rels << std::fixed << (f.rel_delta >= 0 ? "+" : "") << f.rel_delta * 100.0
         << "%";
    os << (f.regression ? "REGRESSION " : "TRAJECTORY ") << f.metric << ": "
       << f.candidate << " vs window median " << f.window_median << " ("
       << rels.str() << ", n=" << f.window_n << ", mad=" << f.window_mad
       << (f.gated ? "" : ", informational") << ")\n";
  }
  os << (result.pass ? "TRAJECTORY GATE PASS" : "TRAJECTORY GATE FAIL") << ": "
     << result.regressions << " significant regression(s) across "
     << result.findings.size() << " gated metric(s)\n";
  return os.str();
}

}  // namespace nustencil::metrics
