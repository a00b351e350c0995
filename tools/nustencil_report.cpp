// nustencil_report — renders a nustencil JSON run report (written by
// `nustencil --report=out.json`) into a self-contained HTML dashboard:
// the traffic heatmap, locality timeline, per-thread phase bars, roofline
// placement and per-span attribution.  Reports of any schema version
// >= 1 are accepted; absent sections are skipped, not errors.
//
//   nustencil_report run.json                    # writes run.html
//   nustencil_report run.json dash.html
//
// Comparing runs is not this tool's job: bench/regress gates the exact
// simulated fields, and bench/perf_ledger --compare gates wall clock.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "metrics/json.hpp"
#include "metrics/schema.hpp"
#include "report/svg_chart.hpp"
#include "report/svg_util.hpp"

namespace {

using namespace nustencil;
using metrics::JsonValue;

// ---------------------------------------------------------------------------
// Shared panel plumbing

/// Renders `panel(doc)`; a missing/short section in an older or
/// truncated report degrades to a note instead of killing the dashboard.
template <typename Fn>
std::string panel_or(const JsonValue& doc, Fn panel, const char* what) {
  try {
    return panel(doc);
  } catch (const std::exception&) {
    return std::string("<p>No ") + what + " section in this report.</p>\n";
  }
}

std::string heatmap_panel(const JsonValue& doc) {
  const JsonValue& traffic = doc.at("traffic");
  const JsonValue& matrix = traffic.at("node_matrix");
  if (!matrix.is_array() || matrix.array.empty())
    return "<p>No traffic matrix (run was not instrumented).</p>\n";

  report::HeatmapSpec hm;
  hm.title = "node-to-node traffic (MiB)";
  hm.x_label = "owner node";
  hm.y_label = "consumer node";
  const std::size_t nodes = matrix.array.size();
  for (std::size_t n = 0; n < nodes; ++n) {
    hm.x_ticks.push_back(std::to_string(n));
    hm.y_ticks.push_back(std::to_string(n));
  }
  for (const JsonValue& row : matrix.array) {
    NUSTENCIL_CHECK(row.is_array() && row.array.size() == nodes,
                    "nustencil_report: ragged node_matrix");
    for (const JsonValue& cell : row.array)
      hm.values.push_back(cell.num() / (1024.0 * 1024.0));
  }
  return report::render_heatmap_svg(hm);
}

std::string locality_panel(const JsonValue& doc) {
  const JsonValue& series = doc.at("traffic").at("locality_series");
  if (!series.is_array() || series.array.size() < 2)
    return "<p>No locality time-series (need at least two samples).</p>\n";

  report::ChartSpec c;
  c.title = "NUMA locality over the run";
  c.x_label = "cell updates (millions)";
  c.y_label = "locality %";
  report::Series s;
  s.label = "locality";
  for (const JsonValue& sample : series.array) {
    std::ostringstream tick;
    tick.precision(3);
    tick << sample.at("updates").num() / 1e6;
    c.x_ticks.push_back(tick.str());
    s.values.push_back(sample.at("locality").num() * 100.0);
  }
  c.series.push_back(std::move(s));
  return report::render_svg(c);
}

std::string phases_panel(const JsonValue& doc) {
  const JsonValue& phases = doc.at("phases");
  const JsonValue* enabled = phases.find("enabled");
  if (!enabled || !enabled->boolean_value())
    return "<p>No phase breakdown (run without phase metrics).</p>\n";

  report::StackedBarSpec sb;
  sb.title = "per-thread phase breakdown";
  sb.x_label = "thread";
  sb.y_label = "seconds";
  sb.segments = {{"init", {}}, {"compute", {}}, {"barrier wait", {}},
                 {"spin-flag wait", {}}};
  const char* keys[] = {"init_s", "compute_s", "barrier_wait_s",
                        "spinflag_wait_s"};
  const JsonValue& threads = phases.at("threads");
  for (std::size_t tid = 0; tid < threads.array.size(); ++tid) {
    sb.x_ticks.push_back(std::to_string(tid));
    for (std::size_t k = 0; k < 4; ++k)
      sb.segments[k].values.push_back(threads.array[tid].at(keys[k]).num());
  }
  return report::render_stacked_bars_svg(sb);
}

std::string roofline_panel(const JsonValue& doc) {
  const JsonValue& model = doc.at("model");
  const JsonValue* lines = model.find("lines");
  if (!lines) return "<p>No model section in this report.</p>\n";

  report::ChartSpec c;
  c.title = "roofline: model placement vs reference lines";
  c.x_label = "cores";
  c.y_label = "Gupdates/s per core";
  const JsonValue& cores = lines->at("cores");
  for (const JsonValue& v : cores.array)
    c.x_ticks.push_back(std::to_string(static_cast<long>(v.num())));

  report::Series peak{"Peak DP", {}}, llc{"LL1Band0C", {}};
  for (const JsonValue& v : lines->at("peak_dp").array) peak.values.push_back(v.num());
  for (const JsonValue& v : lines->at("ll1band0c").array) llc.values.push_back(v.num());

  // The model placement and the wall-clock measurement are single points
  // at the run's core count: a one-point series renders as a marker.
  const double threads = doc.at("config").at("threads").num();
  const double model_point = model.at("gupdates_per_core").num();
  const double measured =
      doc.at("result").at("gupdates_per_s").num() / std::max(1.0, threads);
  report::Series model_s{"model @" + std::to_string(static_cast<long>(threads)),
                         {}};
  report::Series meas_s{"measured (wall clock)", {}};
  for (const JsonValue& v : cores.array) {
    const bool here = static_cast<long>(v.num()) == static_cast<long>(threads);
    model_s.values.push_back(here ? model_point : std::nan(""));
    meas_s.values.push_back(here ? measured : std::nan(""));
  }
  c.series = {peak, llc, model_s, meas_s};
  return report::render_svg(c);
}

std::string summary_table(const JsonValue& doc) {
  const JsonValue& cfg = doc.at("config");
  const JsonValue& res = doc.at("result");
  const JsonValue& traffic = doc.at("traffic");
  std::ostringstream os;
  os << "<table>\n";
  const auto row = [&](const std::string& k, const std::string& v) {
    os << "<tr><th>" << report::svg_escape(k) << "</th><td>"
       << report::svg_escape(v) << "</td></tr>\n";
  };
  row("scheme", cfg.at("scheme").str());
  row("shape", cfg.at("shape").str() + ", " +
                   report::fmt_num(cfg.at("timesteps").num()) + " steps");
  row("threads", report::fmt_num(cfg.at("threads").num()));
  if (const JsonValue* name = doc.at("machine").find("name"))
    row("machine", name->str());
  row("kernel", cfg.at("kernel_variant").str());
  row("wall clock", report::fmt_num(res.at("seconds").num()) + " s");
  row("throughput", report::fmt_num(res.at("gupdates_per_s").num()) +
                        " Gupdates/s");
  row("locality", report::fmt_num(traffic.at("locality").num() * 100.0) + " %");
  const JsonValue& diff = res.at("max_rel_diff");
  if (diff.type == JsonValue::Type::Number)
    row("max rel diff", report::fmt_num(diff.num()));
  os << "</table>\n";
  return os.str();
}

std::string cache_table(const JsonValue& doc) {
  const JsonValue* levels = doc.at("cache").find("levels");
  if (!levels) return "<p>No cache simulation in this report.</p>\n";
  std::ostringstream os;
  os << "<table>\n<tr><th>level</th><th>hits</th><th>misses</th>"
        "<th>hit rate</th></tr>\n";
  for (const JsonValue& lv : levels->array) {
    os << "<tr><td>L" << report::fmt_num(lv.at("level").num()) << "</td><td>"
       << report::fmt_num(lv.at("hits").num()) << "</td><td>"
       << report::fmt_num(lv.at("misses").num()) << "</td><td>"
       << report::fmt_num(lv.at("hit_rate").num() * 100.0) << " %</td></tr>\n";
  }
  os << "</table>\n";
  return os.str();
}

// Maps a straggler verdict to a stable palette class so the table badge
// and the span-roofline scatter use the same colours.
int verdict_class(const std::string& verdict) {
  if (verdict == "remote-traffic-bound") return 1;
  if (verdict == "cache-miss-bound") return 2;
  if (verdict == "spin-bound") return 3;
  return 0;  // compute-bound
}

std::string straggler_table(const JsonValue& prof) {
  const JsonValue* stragglers = prof.find("stragglers");
  if (!stragglers || !stragglers->is_array() || stragglers->array.empty())
    return "<p>No stragglers recorded (run without --trace, or no sampled "
           "spans).</p>\n";
  std::ostringstream os;
  os << "<table>\n<tr><th>#</th><th>thread</th><th>phase</th><th>ms</th>"
        "<th>x mean</th><th>verdict</th><th>spin</th><th>remote</th>"
        "<th>miss</th><th>updates</th></tr>\n";
  std::size_t rank = 1;
  for (const JsonValue& s : stragglers->array) {
    const std::string verdict = s.at("verdict").str();
    const double mean = s.at("mean_dur_ms").num();
    const double ratio = mean > 0.0 ? s.at("dur_ms").num() / mean : 0.0;
    os << "<tr><td>" << rank++ << "</td><td>"
       << report::fmt_num(s.at("tid").num()) << "</td><td>"
       << report::svg_escape(s.at("phase").str()) << "</td><td>"
       << report::fmt_num(s.at("dur_ms").num()) << "</td><td>"
       << report::fmt_num(ratio) << "x</td><td><span class='verdict v"
       << verdict_class(verdict) << "'>" << report::svg_escape(verdict)
       << "</span></td><td>"
       << report::fmt_num(s.at("spin_frac").num() * 100.0) << " %</td><td>"
       << report::fmt_num(s.at("remote_frac").num() * 100.0) << " %</td><td>"
       << report::fmt_num(s.at("miss_rate").num() * 100.0) << " %</td><td>"
       << report::fmt_num(s.at("updates").num()) << "</td></tr>\n";
  }
  os << "</table>\n";
  return os.str();
}

std::string span_roofline_panel(const JsonValue& prof) {
  const JsonValue* roofline = prof.find("roofline");
  if (!roofline || !roofline->is_array() || roofline->array.empty())
    return "<p>No per-span samples (run with --trace to collect them).</p>\n";

  report::ScatterSpec sc;
  sc.title = "per-span roofline (one point per sampled tile)";
  sc.x_label = "arithmetic intensity (FLOP/byte)";
  sc.y_label = "GFLOPS";
  sc.class_labels = {"compute-bound", "remote-traffic-bound",
                     "cache-miss-bound", "spin-bound"};
  for (const JsonValue& p : roofline->array) {
    report::ScatterPoint pt;
    pt.x = p.at("ai").num();
    pt.y = p.at("gflops").num();
    pt.cls = verdict_class(p.at("verdict").str());
    sc.points.push_back(pt);
  }
  return report::render_scatter_svg(sc);
}

std::string prof_section(const JsonValue& doc) {
  const JsonValue* prof = doc.find("prof");
  std::ostringstream os;
  os << "<h2>Per-span attribution</h2>\n";
  if (!prof || !prof->find("enabled") ||
      !prof->at("enabled").boolean_value()) {
    os << "<p>Per-span attribution was disabled for this run.</p>\n";
    return os.str();
  }
  os << "<p>" << report::fmt_num(prof->at("sampled_spans").num())
     << " spans sampled, " << report::fmt_num(prof->at("dropped_events").num())
     << " trace events dropped.</p>\n";
  os << "<h3>Stragglers (slowest spans)</h3>\n" << straggler_table(*prof);
  os << "<h3>Span roofline</h3>\n" << span_roofline_panel(*prof);
  return os.str();
}

std::string hw_events_table(const JsonValue& hw) {
  std::ostringstream os;
  os << "<table>\n<tr><th>event</th><th>available</th><th>total</th>"
        "<th>attributed</th><th>note</th></tr>\n";
  const JsonValue* totals = hw.find("totals");
  const JsonValue* attributed = hw.find("attributed");
  for (const JsonValue& e : hw.at("events").array) {
    const std::string name = e.at("name").str();
    const bool available = e.at("available").boolean_value();
    const JsonValue* tot = available && totals ? totals->find(name) : nullptr;
    const JsonValue* att =
        available && attributed ? attributed->find(name) : nullptr;
    os << "<tr><th>" << report::svg_escape(name) << "</th><td>"
       << (available ? "yes" : "no") << "</td><td>"
       << (tot ? report::fmt_num(tot->num()) : std::string("&mdash;"))
       << "</td><td>"
       << (att ? report::fmt_num(att->num()) : std::string("&mdash;"))
       << "</td><td>";
    if (const JsonValue* why = e.find("reason"))
      os << report::svg_escape(why->str());
    else if (e.at("optional").boolean_value())
      os << "optional";
    os << "</td></tr>\n";
  }
  os << "</table>\n";
  return os.str();
}

std::string hw_threads_note(const JsonValue& hw) {
  const JsonValue* threads = hw.find("threads");
  if (!threads || !threads->is_array() || threads->array.empty()) return "";
  double max_scaling = 1.0;
  bool multiplexed = false;
  for (const JsonValue& t : threads->array) {
    max_scaling = std::max(max_scaling, t.at("scaling").num());
    multiplexed = multiplexed || t.at("multiplexed").boolean_value();
  }
  std::ostringstream os;
  os << "<p>" << threads->array.size() << " thread group(s); ";
  if (multiplexed)
    os << "the PMU time-shared counters (max scaling factor "
       << report::fmt_num(max_scaling)
       << ") &mdash; counts are raw, never scaled up.";
  else
    os << "no multiplexing (every counter ran the whole enabled region).";
  os << "</p>\n";
  return os.str();
}

std::string hw_validation_panel(const JsonValue& hw) {
  const JsonValue* validation = hw.find("validation");
  if (!validation || !validation->find("status"))
    return "<p>No simulated-vs-measured cross-check (needs the cache "
           "simulator, a trace and a measurable cache-misses event).</p>\n";
  if (validation->at("status").str() != "ok")
    return "<p>Cross-check did not run: " +
           report::svg_escape(validation->at("status").str()) + "</p>\n";

  std::ostringstream os;
  os << "<p>Spearman rank correlation <b>"
     << report::fmt_num(validation->at("rank_correlation").num()) << "</b> over "
     << report::fmt_num(validation->at("n").num())
     << " Tile spans (simulated misses vs measured cache-misses; ordering "
        "is the claim &mdash; absolute counts never match).</p>\n";
  report::ScatterSpec sc;
  sc.title = "measured vs simulated (one point per sampled tile)";
  sc.x_label = "simulated cache misses";
  sc.y_label = "measured cache-misses";
  sc.class_labels = {"tile span"};
  for (const JsonValue& p : validation->at("points").array) {
    report::ScatterPoint pt;
    pt.x = p.at("sim_misses").num();
    pt.y = p.at("hw_misses").num();
    pt.cls = 0;
    sc.points.push_back(pt);
  }
  if (sc.points.empty()) return os.str();
  return os.str() + report::render_scatter_svg(sc);
}

std::string hw_section(const JsonValue& doc) {
  const JsonValue* hw = doc.find("hw");
  std::ostringstream os;
  os << "<h2>Hardware counters</h2>\n";
  if (!hw || !hw->find("enabled") || !hw->at("enabled").boolean_value()) {
    os << "<p>Hardware counters were off for this run (enable with "
          "<code>--hw-counters=auto</code>).</p>\n";
    return os.str();
  }
  os << "<p>backend " << report::svg_escape(hw->at("backend").str())
     << ", status <b>" << report::svg_escape(hw->at("status").str()) << "</b>";
  if (const JsonValue* reason = hw->find("reason");
      reason && !reason->str().empty())
    os << " &mdash; " << report::svg_escape(reason->str());
  os << "</p>\n";
  os << panel_or(*hw, hw_events_table, "hw events");
  os << hw_threads_note(*hw);
  os << "<h3>Measured vs simulated</h3>\n" << hw_validation_panel(*hw);
  return os.str();
}

std::string stats_table(const JsonValue& doc) {
  const JsonValue* stats = doc.find("stats");
  if (!stats || !stats->is_object()) return "";
  const JsonValue* metrics_obj = stats->find("metrics");
  if (!metrics_obj || metrics_obj->object.empty()) return "";
  std::ostringstream os;
  os << "<h2>Repetition statistics ("
     << report::fmt_num(stats->at("reps").num()) << " reps)</h2>\n<table>\n"
     << "<tr><th>metric</th><th>median</th><th>MAD</th><th>95% CI</th>"
        "<th>min</th><th>max</th></tr>\n";
  for (const auto& [name, r] : metrics_obj->object) {
    os << "<tr><th>" << report::svg_escape(name) << "</th><td>"
       << report::fmt_num(r.at("median").num()) << "</td><td>"
       << report::fmt_num(r.at("mad").num()) << "</td><td>["
       << report::fmt_num(r.at("ci_lo").num()) << ", "
       << report::fmt_num(r.at("ci_hi").num()) << "]</td><td>"
       << report::fmt_num(r.at("min").num()) << "</td><td>"
       << report::fmt_num(r.at("max").num()) << "</td></tr>\n";
  }
  os << "</table>\n";
  return os.str();
}

std::string provenance_footer(const JsonValue& doc) {
  const JsonValue* prov = doc.find("provenance");
  if (!prov) return "";
  std::ostringstream os;
  os << "<footer><p class='prov'>";
  const auto item = [&](const char* key, const std::string& label) {
    if (const JsonValue* v = prov->find(key); v && !v->str().empty())
      os << label << " " << report::svg_escape(v->str()) << " &middot; ";
  };
  item("git_sha", "commit");
  item("compiler", "compiler");
  item("build_type", "build");
  item("machine_conf", "machine conf");
  if (const JsonValue* flags = prov->find("compiler_flags");
      flags && !flags->str().empty())
    os << "flags <code>" << report::svg_escape(flags->str()) << "</code>";
  os << "</p></footer>\n";
  return os.str();
}

std::string counters_table(const JsonValue& doc) {
  const JsonValue* counters = doc.find("counters");
  if (!counters || counters->object.empty()) return "";
  std::ostringstream os;
  os << "<h2>Counters</h2>\n<table>\n";
  for (const auto& [name, v] : counters->object)
    os << "<tr><th>" << report::svg_escape(name) << "</th><td>"
       << report::fmt_num(v.num()) << "</td></tr>\n";
  os << "</table>\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Dashboard

const char* kStyle =
    "body{font-family:sans-serif;max-width:1080px;margin:24px auto;}\n"
    "table{border-collapse:collapse;margin:12px 0;}\n"
    "th,td{border:1px solid #ccc;padding:4px 10px;text-align:left;"
    "font-size:14px;}\n"
    "svg{display:block;margin:16px 0;}\n"
    ".cols{display:flex;gap:8px;flex-wrap:wrap;}\n"
    ".cols>div{flex:1;min-width:480px;}\n"
    // Verdict badge colours match palette_color(verdict_class(...)).
    ".verdict{color:white;padding:1px 6px;border-radius:3px;"
    "font-size:12px;}\n"
    ".v0{background:#1f77b4;}.v1{background:#d62728;}\n"
    ".v2{background:#2ca02c;}.v3{background:#ff7f0e;}\n"
    // .cols, .sig and .noise style no panel; they stay so that a report
    // keeps rendering to the same bytes.
    ".sig{background:#d62728;color:white;padding:1px 6px;"
    "border-radius:3px;font-size:12px;}\n"
    ".noise{background:#999;color:white;padding:1px 6px;"
    "border-radius:3px;font-size:12px;}\n"
    "footer p.prov{color:#777;font-size:12px;border-top:1px solid #ccc;"
    "padding-top:8px;}\n";

void check_schema(const JsonValue& doc, const std::string& path) {
  const JsonValue* v = doc.find("schema_version");
  const int version =
      v && v->type == JsonValue::Type::Number ? static_cast<int>(v->num()) : 0;
  NUSTENCIL_CHECK(version >= 1, "nustencil_report: " + path +
                                    " has no schema_version >= 1 (not a "
                                    "nustencil run report)");
  if (version > metrics::kRunReportSchemaVersion)
    std::cerr << "warning: " << path << " is schema v" << version
              << ", newer than this tool (v"
              << metrics::kRunReportSchemaVersion
              << "); unknown sections are ignored\n";
}

std::string render_dashboard(const JsonValue& doc) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset='utf-8'>\n<title>"
     << report::svg_escape(doc.at("config").at("scheme").str())
     << " run report</title>\n<style>\n" << kStyle << "</style>\n</head>\n<body>\n";
  os << "<h1>nustencil run report</h1>\n";
  os << panel_or(doc, summary_table, "summary");
  os << "<h2>NUMA traffic</h2>\n" << panel_or(doc, heatmap_panel, "traffic");
  os << "<h2>Locality timeline</h2>\n"
     << panel_or(doc, locality_panel, "locality");
  os << "<h2>Phases</h2>\n" << panel_or(doc, phases_panel, "phases");
  os << "<h2>Roofline</h2>\n" << panel_or(doc, roofline_panel, "model");
  os << "<h2>Cache hierarchy</h2>\n" << panel_or(doc, cache_table, "cache");
  os << prof_section(doc);
  os << hw_section(doc);
  os << stats_table(doc);
  os << counters_table(doc);
  os << provenance_footer(doc);
  os << "</body>\n</html>\n";
  return os.str();
}

std::string default_output(const std::string& input) {
  const std::size_t dot = input.rfind('.');
  if (dot == std::string::npos || input.find('/', dot) != std::string::npos)
    return input + ".html";
  return input.substr(0, dot) + ".html";
}

/// Parses a report file; any I/O or syntax problem becomes one clear
/// error line naming the file instead of an unhandled throw.
JsonValue load_report(const std::string& path) {
  try {
    return metrics::parse_json_file(path);
  } catch (const std::exception& e) {
    throw Error("cannot load report '" + path + "': " + e.what());
  }
}

void write_html(const std::string& html, const std::string& path) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "nustencil_report: cannot open " + path);
  out << html;
  NUSTENCIL_CHECK(out.good(), "nustencil_report: write failed for " + path);
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("nustencil_report",
                 "render a nustencil --report JSON file into a "
                 "self-contained HTML dashboard");
  if (!args.parse(argc, argv)) return 0;
  const std::vector<std::string>& pos = args.positionals();
  NUSTENCIL_CHECK(pos.size() == 1 || pos.size() == 2,
                  "usage: nustencil_report <report.json> [<out.html>]");
  const std::string in_path = pos[0];
  const std::string out_path =
      pos.size() == 2 ? pos[1] : default_output(in_path);

  const JsonValue doc = load_report(in_path);
  check_schema(doc, in_path);
  write_html(render_dashboard(doc), out_path);
  std::cout << "wrote dashboard to " << out_path << '\n';
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
