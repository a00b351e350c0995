// bench/validate_model — simulated-vs-measured cross-validation: runs one
// fully instrumented scheme (traffic recorder, cache simulator, trace
// with per-span sampling, hardware counters in auto mode) and emits the
// Spearman rank correlation between each Tile span's simulated cache
// misses and its measured cache-misses delta.
//
// Absolute counts never agree — the simulator models row-granular
// accesses on a virtual hierarchy while the PMU counts real LLC
// transactions with prefetchers in play — so the check asks only that
// the *ordering* survives: spans the simulator calls miss-heavy should
// measure miss-heavy too.  A high rank correlation means the simulated
// counters the dashboards and stragglers are built on track reality.
//
// Degradation is part of the contract: on hosts with no usable PMU
// (containers, perf_event_paranoid, no vPMU) the tool still exits 0 and
// the JSON records status + reason, so CI can run it unconditionally and
// only upload a meaningful artifact when counters were available.
//
//   validate_model --scheme=nuCATS --out=BENCH_validate.json
#include <fstream>
#include <iostream>
#include <string>

#include "cachesim/shared.hpp"
#include "common/args.hpp"
#include "common/error.hpp"
#include "common/provenance.hpp"
#include "hwc/backend.hpp"
#include "hwc/events.hpp"
#include "metrics/json.hpp"
#include "schemes/scheme.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace {

using namespace nustencil;

constexpr int kValidateSchemaVersion = 1;

void write_doc(const std::string& path, const schemes::RunConfig& cfg,
               const std::string& scheme, Index edge,
               const hwc::HwRunStats& hw) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "validate_model: cannot open " + path);
  metrics::JsonWriter w(out);
  w.begin_object();
  w.kv("schema_version", kValidateSchemaVersion);
  w.kv("generator", "bench/validate_model");
  const BuildInfo& build = build_info();
  w.key("provenance").begin_object();
  w.kv("git_sha", build.git_sha);
  w.kv("compiler", build.compiler);
  w.kv("build_type", build.build_type);
  w.end_object();
  w.kv("scheme", scheme);
  w.kv("edge", static_cast<std::int64_t>(edge));
  w.kv("threads", cfg.num_threads);
  w.kv("timesteps", static_cast<std::int64_t>(cfg.timesteps));
  w.kv("hw_status", hw.status);
  if (!hw.reason.empty()) w.kv("hw_reason", hw.reason);

  // One flat status for scripts: "ok" only when the correlation actually
  // computed; otherwise the most specific reason available.
  std::string status = "ok";
  std::string reason;
  if (!hw.available(hwc::Event::CacheMisses)) {
    status = "degraded";
    reason = "cache-misses event unavailable" +
             (hw.reason.empty() ? "" : " — " + hw.reason);
  } else if (!hw.validation) {
    status = "degraded";
    reason = "run produced no validation (trace or cache sim missing)";
  } else if (hw.validation->status != "ok") {
    status = "degraded";
    reason = hw.validation->status;
  }
  w.kv("status", status);
  if (!reason.empty()) w.kv("reason", reason);

  if (hw.validation) {
    w.kv("n_spans", hw.validation->n);
    w.kv("rank_correlation", hw.validation->spearman);
    w.key("points").begin_array();
    for (const auto& p : hw.validation->points) {
      w.begin_object();
      w.kv("sim_misses", p[0]);
      w.kv("hw_misses", p[1]);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  out << '\n';
  NUSTENCIL_CHECK(out.good(), "validate_model: write failed for " + path);
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("validate_model",
                 "rank-correlate simulated cache misses against measured "
                 "hardware counters, per span");
  args.add_option("scheme", "scheme to instrument", "nuCATS");
  args.add_option("edge", "cubic domain edge (small: every access is "
                          "cache-simulated)", "24");
  args.add_option("steps", "timesteps", "6");
  args.add_option("threads", "worker threads", "2");
  args.add_option("out", "write the correlation JSON here",
                  "BENCH_validate.json");
  if (!args.parse(argc, argv)) return 0;

  const std::string scheme_name = args.get("scheme");
  const Index edge = static_cast<Index>(
      ArgParser::validate_positive("--edge", args.get_long("edge")));
  const topology::MachineSpec machine = topology::xeonX7550();
  const core::StencilSpec stencil = core::StencilSpec::paper_3d7p();
  const auto scheme = schemes::make_scheme(scheme_name);

  schemes::RunConfig cfg;
  cfg.num_threads = static_cast<int>(
      ArgParser::validate_positive("--threads", args.get_long("threads")));
  cfg.timesteps = ArgParser::validate_positive("--steps",
                                               args.get_long("steps"));
  cfg.instrument = true;
  cfg.machine = &machine;
  cfg.profile_spans = true;
  cfg.hw_mode = hwc::Mode::Auto;  // measure what the host offers
  cfg.boundary = scheme->default_boundary();

  trace::Trace tr;
  cfg.trace = &tr;
  cachesim::SharedHierarchy sim(machine, cfg.num_threads);
  cfg.cache_sim = &sim;

  core::Problem problem(Coord{edge, edge, edge}, stencil);
  const schemes::RunResult run = scheme->run(problem, cfg);

  write_doc(args.get("out"), cfg, scheme_name, edge, run.hw);
  std::cout << "validate_model " << scheme_name << " edge=" << edge
            << ": hw=" << run.hw.status;
  if (run.hw.validation && run.hw.validation->status == "ok")
    std::cout << ", rank correlation " << run.hw.validation->spearman
              << " over " << run.hw.validation->n << " spans";
  else if (!run.hw.reason.empty())
    std::cout << " (" << run.hw.reason << ")";
  std::cout << "\nwrote " << args.get("out") << '\n';
  return 0;  // degradation is graceful by design — the JSON says why
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
