// bench/telemetry_overhead — measures what the live telemetry sampler
// costs the run it watches: the same nuCATS problem is timed with
// telemetry off and with a 10 ms sampler attached (counter shard bound,
// rings filling, no file exports), and the median-vs-median overhead
// lands in the JSON as telemetry/overhead_pct.
//
// The number is an informational CI artifact — never gated — because
// it measures a *ratio of wall clocks* on whatever runner CI landed on.  The hard contract this tool does enforce is the zero-cost
// off path: across every untelemetered rep, Sampler::threads_started()
// must not move, or the tool exits 1.
//
//   telemetry_overhead --edge=64 --steps=20 --reps=3 \
//                      --out=BENCH_telemetry_overhead.json
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/provenance.hpp"
#include "common/stats.hpp"
#include "metrics/json.hpp"
#include "schemes/scheme.hpp"
#include "telemetry/sampler.hpp"

namespace {

using namespace nustencil;

constexpr int kOverheadSchemaVersion = 1;

double run_once(const schemes::Scheme& scheme, Index edge,
                schemes::RunConfig cfg) {
  core::Problem problem(Coord{edge, edge, edge},
                        core::StencilSpec::paper_3d7p());
  return scheme.run(problem, cfg).seconds;
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("telemetry_overhead",
                 "time a scheme with and without the live telemetry sampler "
                 "attached");
  args.add_option("scheme", "scheme to time", "nuCATS");
  args.add_option("edge", "cubic domain edge", "64");
  args.add_option("steps", "timesteps", "20");
  args.add_option("threads", "worker threads", "2");
  args.add_option("reps", "repetitions per group (median wins)", "3");
  args.add_option("interval-ms", "sampler cadence while attached", "10");
  args.add_option("out", "write the overhead JSON here",
                  "BENCH_telemetry_overhead.json");
  if (!args.parse(argc, argv)) return 0;

  const std::string scheme_name = args.get("scheme");
  const Index edge = static_cast<Index>(
      ArgParser::validate_positive("--edge", args.get_long("edge")));
  const long steps =
      ArgParser::validate_positive("--steps", args.get_long("steps"));
  const int threads = static_cast<int>(
      ArgParser::validate_positive("--threads", args.get_long("threads")));
  const int reps = static_cast<int>(
      ArgParser::validate_positive("--reps", args.get_long("reps")));
  const double interval_s =
      ArgParser::validate_positive_ms("--interval-ms",
                                      args.get_double("interval-ms")) *
      1e-3;

  const auto scheme = schemes::make_scheme(scheme_name);
  schemes::RunConfig base;
  base.num_threads = threads;
  base.timesteps = steps;
  if (scheme_name == "CATS" || scheme_name == "nuCATS")
    base.boundary[2] = core::BoundaryKind::Dirichlet;

  // Warm-up rep (page faults, frequency ramp) shared by both groups.
  run_once(*scheme, edge, base);

  // Off group, and the zero-cost contract: no sampler thread may appear.
  const std::uint64_t threads_before = telemetry::Sampler::threads_started();
  std::vector<double> off_s;
  for (int r = 0; r < reps; ++r) off_s.push_back(run_once(*scheme, edge, base));
  const std::uint64_t threads_delta_off =
      telemetry::Sampler::threads_started() - threads_before;

  // On group: live counter shard published, sampler ticking, rings
  // filling — the full in-memory pipeline, minus file exports (those are
  // I/O-bound and measured by their own CI leg).
  std::vector<double> on_s;
  for (int r = 0; r < reps; ++r) {
    telemetry::Config tcfg;
    tcfg.interval_s = interval_s;
    tcfg.label = scheme_name;
    telemetry::Sampler sampler(tcfg);
    schemes::RunConfig cfg = base;
    cfg.telemetry = &sampler;
    on_s.push_back(run_once(*scheme, edge, cfg));
  }

  const double off_med = median(off_s);
  const double on_med = median(on_s);
  const double overhead_pct =
      off_med > 0.0 ? (on_med - off_med) / off_med * 100.0 : 0.0;

  std::ofstream out(args.get("out"));
  NUSTENCIL_CHECK(out.good(),
                  "telemetry_overhead: cannot open " + args.get("out"));
  metrics::JsonWriter w(out);
  w.begin_object();
  w.kv("schema_version", kOverheadSchemaVersion);
  w.kv("generator", "bench/telemetry_overhead");
  const BuildInfo& build = build_info();
  w.key("provenance").begin_object();
  w.kv("git_sha", build.git_sha);
  w.kv("compiler", build.compiler);
  w.kv("build_type", build.build_type);
  w.end_object();
  w.kv("scheme", scheme_name);
  w.kv("edge", static_cast<std::int64_t>(edge));
  w.kv("threads", threads);
  w.kv("timesteps", static_cast<std::int64_t>(steps));
  w.kv("reps", reps);
  w.kv("interval_ms", interval_s * 1e3);
  w.kv("seconds_off", off_med);
  w.kv("seconds_on", on_med);
  w.kv("overhead_pct", overhead_pct);
  w.kv("sampler_threads_started_off", threads_delta_off);
  w.end_object();
  out << '\n';
  NUSTENCIL_CHECK(out.good(),
                  "telemetry_overhead: write failed for " + args.get("out"));

  std::cout << "telemetry overhead: off " << off_med << " s, on " << on_med
            << " s -> " << overhead_pct << " %\n";
  if (threads_delta_off != 0) {
    std::cerr << "telemetry_overhead: FAIL — " << threads_delta_off
              << " sampler thread(s) started during untelemetered reps\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
