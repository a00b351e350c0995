#include "metrics/run_report.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "metrics/json.hpp"
#include "metrics/schema.hpp"

namespace nustencil::metrics {

namespace {

void write_config(JsonWriter& w, const RunReport& r) {
  w.begin_object();
  w.kv("scheme", r.scheme);
  w.kv("shape", r.shape);
  w.kv("timesteps", r.timesteps);
  w.kv("threads", r.threads);
  w.kv("kernel_policy", r.kernel_policy);
  w.kv("kernel_variant", r.kernel_variant);
  w.kv("page_bytes", static_cast<std::int64_t>(r.page_bytes));
  w.kv("seed", static_cast<std::uint64_t>(r.seed));
  w.kv("pin_policy", r.pin_policy);
  w.kv("schedule", r.schedule.empty() ? "static" : r.schedule);
  w.end_object();
}

void write_machine(JsonWriter& w, const topology::MachineSpec* m) {
  w.begin_object();
  if (m) {
    w.kv("name", m->name);
    w.kv("sockets", m->sockets);
    w.kv("cores_per_socket", m->cores_per_socket);
    w.kv("ghz", m->ghz);
    w.kv("sys_bw_gbs", m->sys_bw_gbs);
    w.kv("peak_dp_gflops", m->peak_dp_gflops);
    w.kv("remote_penalty", m->remote_penalty);
    w.key("caches").begin_array();
    for (const auto& c : m->caches) {
      w.begin_object();
      w.kv("name", c.name);
      w.kv("size_bytes", static_cast<std::int64_t>(c.size_bytes));
      w.kv("shared_by_cores", c.shared_by_cores);
      w.kv("line_bytes", static_cast<std::int64_t>(c.line_bytes));
      w.kv("aggregate_bw_gbs", c.aggregate_bw_gbs);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void write_result(JsonWriter& w, const RunReport& r) {
  w.begin_object();
  w.kv("seconds", r.seconds);
  w.kv("updates", static_cast<std::int64_t>(r.updates));
  w.kv("gupdates_per_s", r.gupdates_per_second);
  if (r.max_rel_diff)
    w.kv("max_rel_diff", *r.max_rel_diff);
  else
    w.key("max_rel_diff").null();
  w.end_object();
}

void write_traffic(JsonWriter& w, const numa::TrafficStats& t) {
  w.begin_object();
  w.kv("local_bytes", t.local_bytes);
  w.kv("remote_bytes", t.remote_bytes);
  w.kv("unowned_bytes", t.unowned_bytes);
  w.kv("locality", t.locality());
  w.key("bytes_from_node").begin_array();
  for (std::uint64_t b : t.bytes_from_node) w.value(b);
  w.end_array();
  // node_matrix as an array of rows: row = consumer node, col = owner.
  const int nodes = t.num_nodes();
  w.key("node_matrix").begin_array();
  if (!t.node_matrix.empty()) {
    for (int from = 0; from < nodes; ++from) {
      w.begin_array();
      for (int to = 0; to < nodes; ++to) w.value(t.matrix_at(from, to));
      w.end_array();
    }
  }
  w.end_array();
  w.key("locality_series").begin_array();
  for (const auto& s : t.samples) {
    w.begin_object();
    w.kv("updates", s.updates);
    w.kv("local_bytes", s.local_bytes);
    w.kv("remote_bytes", s.remote_bytes);
    w.kv("locality", s.locality());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_cache(JsonWriter& w, const RunReport& r) {
  w.begin_object();
  if (r.cache) {
    const cachesim::HierarchyTraffic& c = *r.cache;
    w.kv("line_bytes", static_cast<std::int64_t>(r.cache_line_bytes));
    w.key("levels").begin_array();
    for (std::size_t i = 0; i < c.level.size(); ++i) {
      const auto& lv = c.level[i];
      const std::uint64_t total = lv.hits + lv.misses;
      w.begin_object();
      w.kv("level", static_cast<std::int64_t>(i + 1));
      w.kv("hits", lv.hits);
      w.kv("misses", lv.misses);
      w.kv("hit_rate",
           total == 0 ? 1.0 : static_cast<double>(lv.hits) / static_cast<double>(total));
      w.end_object();
    }
    w.end_array();
    w.kv("memory_reads", c.memory_reads);
    w.kv("memory_writes", c.memory_writes);
    w.kv("memory_bytes", c.memory_bytes(r.cache_line_bytes));
  }
  w.end_object();
}

void write_phases(JsonWriter& w, const trace::PhaseBreakdown& p) {
  w.begin_object();
  w.kv("enabled", p.enabled);
  if (p.enabled) {
    w.kv("init_s", p.total_s(trace::Phase::Init));
    w.kv("compute_s", p.total_s(trace::Phase::Tile));
    w.kv("barrier_wait_s", p.total_s(trace::Phase::BarrierWait));
    w.kv("spinflag_wait_s", p.total_s(trace::Phase::SpinWait));
    w.kv("imbalance", p.imbalance());
    w.key("threads").begin_array();
    for (const auto& t : p.threads) {
      w.begin_object();
      w.kv("init_s", t.init_s());
      w.kv("compute_s", t.compute_s());
      w.kv("barrier_wait_s", t.barrier_wait_s());
      w.kv("spinflag_wait_s", t.spin_wait_s());
      w.kv("spins", t.spins);
      w.kv("dropped", t.dropped);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void write_sched(JsonWriter& w, const sched::SchedStats& s) {
  w.begin_object();
  w.kv("enabled", s.enabled);
  if (s.enabled) {
    w.kv("schedule", s.schedule);
    w.kv("steal_attempts", s.total_attempts());
    w.kv("steals", s.total_steals());
    w.kv("steal_fails", s.total_fails());
    w.kv("stolen_updates", s.total_stolen_updates());
    w.key("threads").begin_array();
    for (const auto& t : s.threads) {
      w.begin_object();
      w.kv("steal_attempts", t.steal_attempts);
      w.kv("steals", t.steals);
      w.kv("steal_fails", t.steal_fails);
      w.kv("stolen_tasks", t.stolen_tasks);
      w.kv("stolen_updates", t.stolen_updates);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void write_provenance(JsonWriter& w, const RunReport& r) {
  w.begin_object();
  w.kv("git_sha", r.git_sha);
  w.kv("compiler", r.compiler);
  w.kv("compiler_flags", r.compiler_flags);
  w.kv("build_type", r.build_type);
  w.kv("machine_conf", r.machine_conf);
  w.end_object();
}

void write_prof(JsonWriter& w, const prof::ProfSummary* p) {
  w.begin_object();
  w.kv("enabled", p != nullptr && p->enabled);
  if (p && p->enabled) {
    w.kv("flops_per_update", p->flops_per_update);
    w.kv("sampled_spans", p->sampled_spans);
    w.kv("dropped_events", p->dropped_events);
    w.key("totals").begin_object();
    for (int i = 0; i < trace::kNumSpanCounters; ++i) {
      const auto c = static_cast<trace::SpanCounter>(i);
      w.kv(trace::span_counter_name(c), p->totals.at(c));
    }
    w.end_object();
    w.key("stragglers").begin_array();
    for (const prof::Straggler& s : p->stragglers) {
      w.begin_object();
      w.kv("tid", s.span.tid);
      w.kv("phase", trace::phase_name(s.span.phase));
      w.kv("dur_ms", s.dur_ms);
      w.kv("mean_dur_ms", s.mean_dur_ms);
      w.kv("verdict", prof::verdict_name(s.why.verdict));
      w.kv("spin_frac", s.why.spin_frac);
      w.kv("remote_frac", s.why.remote_frac);
      w.kv("miss_rate", s.why.miss_rate);
      w.kv("updates", s.span.counters.at(trace::SpanCounter::Updates));
      w.kv("bytes", s.span.counters.total_bytes());
      w.end_object();
    }
    w.end_array();
    w.key("roofline").begin_array();
    for (const prof::RooflinePoint& pt : p->roofline) {
      w.begin_object();
      w.kv("ai", pt.ai);
      w.kv("gflops", pt.gflops);
      w.kv("tid", pt.tid);
      w.kv("verdict", prof::verdict_name(pt.verdict));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void write_hw_event_map(JsonWriter& w, const char* key,
                        const std::array<std::uint64_t, hwc::kNumEvents>& v,
                        const hwc::HwRunStats& h) {
  w.key(key).begin_object();
  for (const auto& e : h.events)
    if (e.available)
      w.kv(hwc::event_name(e.event), v[static_cast<std::size_t>(e.event)]);
  w.end_object();
}

void write_hw(JsonWriter& w, const hwc::HwRunStats* h) {
  w.begin_object();
  w.kv("enabled", h != nullptr && h->enabled);
  if (h && h->enabled) {
    w.kv("mode", hwc::mode_name(h->mode));
    w.kv("backend", h->backend);
    w.kv("status", h->status);
    w.kv("reason", h->reason);
    w.kv("paranoid", h->paranoid);
    w.key("events").begin_array();
    for (const auto& e : h->events) {
      w.begin_object();
      w.kv("name", hwc::event_name(e.event));
      w.kv("available", e.available);
      w.kv("optional", e.optional_event);
      if (!e.available) w.kv("reason", e.reason);
      w.end_object();
    }
    w.end_array();
    // Raw counts only: `total` is the whole enabled-region read,
    // `attributed` the exact sum of Tile/Init span deltas.  The scaling
    // factor is reported next to them, never multiplied in.
    w.key("threads").begin_array();
    for (const auto& t : h->threads) {
      w.begin_object();
      w.kv("scaling", t.scaling);
      w.kv("multiplexed", t.multiplexed);
      write_hw_event_map(w, "total", t.total, *h);
      write_hw_event_map(w, "attributed", t.attributed, *h);
      w.end_object();
    }
    w.end_array();
    write_hw_event_map(w, "totals", h->totals, *h);
    write_hw_event_map(w, "attributed", h->attributed, *h);
    w.key("validation").begin_object();
    if (h->validation) {
      w.kv("status", h->validation->status);
      w.kv("n", h->validation->n);
      w.kv("rank_correlation", h->validation->spearman);
      w.key("points").begin_array();
      for (const auto& p : h->validation->points) {
        w.begin_object();
        w.kv("sim_misses", p[0]);
        w.kv("hw_misses", p[1]);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
}

void write_model(JsonWriter& w, const std::optional<ModelSection>& m) {
  w.begin_object();
  if (m) {
    w.kv("gupdates_per_core", m->gupdates_per_core);
    w.kv("gflops_per_core", m->gflops_per_core);
    w.kv("t_compute", m->t_compute);
    w.kv("t_llc", m->t_llc);
    w.kv("t_mem", m->t_mem);
    w.key("lines").begin_object();
    w.key("cores").begin_array();
    for (int c : m->cores) w.value(c);
    w.end_array();
    w.key("peak_dp").begin_array();
    for (double v : m->peak_dp) w.value(v);
    w.end_array();
    w.key("ll1band0c").begin_array();
    for (double v : m->ll1band0c) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

void write_stats(JsonWriter& w, const std::optional<StatsSection>& s) {
  w.begin_object();
  if (s) {
    w.kv("reps", s->reps);
    w.key("metrics").begin_object();
    for (const auto& [name, r] : s->metrics) {
      w.key(name).begin_object();
      w.kv("n", r.n);
      w.kv("median", r.median);
      w.kv("mad", r.mad);
      w.kv("ci_lo", r.ci_lo);
      w.kv("ci_hi", r.ci_hi);
      w.kv("min", r.min);
      w.kv("max", r.max);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace

void write_run_report(const RunReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", kRunReportSchemaVersion);
  w.kv("generator", "nustencil");
  w.key("provenance");
  write_provenance(w, report);
  w.key("config");
  write_config(w, report);
  w.key("machine");
  write_machine(w, report.machine);
  w.key("result");
  write_result(w, report);
  w.key("traffic");
  write_traffic(w, report.traffic);
  w.key("cache");
  write_cache(w, report);
  w.key("phases");
  write_phases(w, report.phases);
  w.key("sched");
  write_sched(w, report.sched);
  w.key("prof");
  write_prof(w, report.prof);
  w.key("hw");
  write_hw(w, report.hw);
  w.key("model");
  write_model(w, report.model);
  w.key("stats");
  write_stats(w, report.stats);

  const Snapshot snap = report.registry ? report.registry->snapshot() : Snapshot{};
  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) w.kv(name, v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, buckets] : snap.histograms) {
    w.key(name).begin_array();
    for (std::uint64_t b : buckets) w.value(b);
    w.end_array();
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

void write_run_report_file(const RunReport& report, const std::string& path) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "write_run_report: cannot open " + path);
  write_run_report(report, out);
  NUSTENCIL_CHECK(out.good(), "write_run_report: write failed for " + path);
}

std::string run_report_json(const RunReport& report) {
  std::ostringstream os;
  write_run_report(report, os);
  return os.str();
}

std::string describe_report(const std::string& report_path, bool cache_sim) {
  std::ostringstream os;
  os << "  run report (json)       : "
     << (report_path.empty() ? "off" : "on -> " + report_path);
  if (!report_path.empty())
    os << " (schema v" << kRunReportSchemaVersion
       << "; render with: nustencil_report " << report_path << ")";
  os << '\n';
  os << "  cache simulation        : " << (cache_sim ? "on" : "off")
     << " (per-level hit rates in the report)" << '\n';
  return os.str();
}

}  // namespace nustencil::metrics
