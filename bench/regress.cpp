// bench/regress — the regression gate: runs a fixed scheme x size matrix,
// writes every deterministic observable to BENCH_schemes.json, and in
// --baseline mode diffs a fresh run against a committed baseline.
//
// The gate is deliberately non-flaky: cell-update counts and simulated
// traffic bytes are integer-deterministic and compared exactly.  The
// local/remote split used to race — a page straddling two threads'
// first-touch ranges went to whichever thread touched it first — and
// locality carried a 0.05 absolute tolerance to absorb that.  Since the
// executors switched to PageTable::first_touch_page_start (a straddling
// page goes to the owner of its first byte, deterministically), the
// split is exact too, so local/remote/unowned bytes are now gated with
// exact integer compares and the locality tolerance is gone.  The model
// output keeps a small relative tolerance only because it runs through
// libm, which may differ across toolchains.  Wall-clock seconds are
// recorded for information only: single-rep timings of millisecond runs
// swing by far more than any fixed ratio on a shared host, so wall clock
// is judged by bench/perf_ledger, which measures with reps.
//
//   regress                         # writes BENCH_schemes.json
//   regress --out=fresh.json --baseline=bench/BENCH_schemes.json
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/provenance.hpp"
#include "metrics/json.hpp"
#include "perf/model.hpp"
#include "schemes/scheme.hpp"
#include "topology/machine.hpp"

namespace {

using namespace nustencil;

// v2 adds the "provenance" block (git SHA, compiler, build type, machine
// conf) so a failing gate can print what actually changed between the
// baseline build and the candidate.  v1 baselines are still accepted —
// they just have no provenance to diff.
constexpr int kRegressSchemaVersion = 2;

const char* kMachineConf = "xeon-x7550";

const std::vector<std::string>& regress_schemes() {
  static const std::vector<std::string> schemes = {
      "NaiveSSE", "CATS", "nuCATS", "CORALS", "nuCORALS", "MWD", "nuMWD"};
  return schemes;
}
const std::vector<Index>& regress_edges() {
  static const std::vector<Index> edges = {24, 40};
  return edges;
}
constexpr long kSteps = 6;
constexpr int kThreads = 2;

struct Case {
  std::string scheme;
  Index edge = 0;
  // Integer-deterministic observables, all compared exactly: updates and
  // the full local/remote/unowned traffic split (deterministic since
  // first-touch switched to the page-start ownership rule).
  Index updates = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t unowned_bytes = 0;
  // Derived from the exact split but serialised as a double: tight
  // relative tolerance covers only JSON round-trip formatting.
  double locality = 0.0;
  // Goes through libm: small relative tolerance.
  double model_gupdates_per_core = 0.0;
  // Wall clock: informational, never gated.
  double seconds = 0.0;
};

Case run_case(const std::string& name, Index edge) {
  const topology::MachineSpec machine = topology::xeonX7550();
  const core::StencilSpec stencil = core::StencilSpec::paper_3d7p();
  const auto scheme = schemes::make_scheme(name);

  schemes::RunConfig cfg;
  cfg.num_threads = kThreads;
  cfg.timesteps = kSteps;
  cfg.instrument = true;
  cfg.machine = &machine;
  // Scatter the two threads across sockets: compact pinning would put
  // both on node 0 and every scheme would measure locality 1.0, leaving
  // the traffic half of the gate vacuous.
  cfg.pin_policy = numa::PinPolicy::Scatter;
  cfg.boundary = scheme->default_boundary();

  core::Problem problem(Coord{edge, edge, edge}, stencil);
  const schemes::RunResult run = scheme->run(problem, cfg);

  perf::ModelInput in;
  in.machine = &machine;
  in.stencil = &stencil;
  in.threads = kThreads;
  in.traffic = scheme->estimate_traffic(machine, Coord{edge, edge, edge},
                                        stencil, kThreads, kSteps);
  in.locality = run.traffic.locality();
  in.node_demand.assign(run.traffic.bytes_from_node.begin(),
                        run.traffic.bytes_from_node.end());
  const auto [sync_base, sync_socket] = perf::scheme_sync_overhead(name);
  in.sync_overhead = sync_base;
  in.sync_per_socket = sync_socket;

  Case c;
  c.scheme = name;
  c.edge = edge;
  c.updates = run.updates;
  c.local_bytes = run.traffic.local_bytes;
  c.remote_bytes = run.traffic.remote_bytes;
  c.unowned_bytes = run.traffic.unowned_bytes;
  c.locality = run.traffic.locality();
  c.model_gupdates_per_core = perf::model_scheme(in).gupdates_per_core;
  c.seconds = run.seconds;
  return c;
}

void write_cases(const std::vector<Case>& cases, const std::string& path) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "regress: cannot open " + path);
  metrics::JsonWriter w(out);
  w.begin_object();
  w.kv("schema_version", kRegressSchemaVersion);
  w.kv("generator", "bench/regress");
  w.kv("threads", kThreads);
  w.kv("timesteps", static_cast<std::int64_t>(kSteps));
  w.kv("machine", kMachineConf);
  const BuildInfo& build = build_info();
  w.key("provenance").begin_object();
  w.kv("git_sha", build.git_sha);
  w.kv("compiler", build.compiler);
  w.kv("build_type", build.build_type);
  w.kv("machine_conf", kMachineConf);
  w.end_object();
  w.key("cases").begin_array();
  for (const Case& c : cases) {
    w.begin_object();
    w.kv("scheme", c.scheme);
    w.kv("edge", static_cast<std::int64_t>(c.edge));
    w.kv("updates", static_cast<std::int64_t>(c.updates));
    w.kv("local_bytes", c.local_bytes);
    w.kv("remote_bytes", c.remote_bytes);
    w.kv("unowned_bytes", c.unowned_bytes);
    w.kv("locality", c.locality);
    w.kv("model_gupdates_per_core", c.model_gupdates_per_core);
    w.kv("seconds", c.seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  NUSTENCIL_CHECK(out.good(), "regress: write failed for " + path);
}

bool close_rel(double a, double b, double eps) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) <= eps * scale;
}

/// How the baseline's build provenance differs from this binary, one
/// line per differing field — a gated-field mismatch plus a compiler or
/// commit delta usually explains itself from the CI log alone.
std::string provenance_delta(const metrics::JsonValue& base) {
  const metrics::JsonValue* prov = base.find("provenance");
  if (!prov)
    return "  baseline predates provenance (schema v1): rebuild it to "
           "record git SHA / compiler / machine conf\n";
  const BuildInfo& build = build_info();
  std::ostringstream os;
  const auto field = [&](const char* key, const std::string& candidate) {
    const metrics::JsonValue* v = prov->find(key);
    const std::string baseline = v ? v->str() : "<absent>";
    if (baseline != candidate)
      os << "  provenance " << key << ": baseline '" << baseline
         << "' vs candidate '" << candidate << "'\n";
  };
  field("git_sha", build.git_sha);
  field("compiler", build.compiler);
  field("build_type", build.build_type);
  field("machine_conf", kMachineConf);
  if (os.str().empty())
    return "  provenance identical: same commit, compiler, build type and "
           "machine conf\n";
  return os.str();
}

const metrics::JsonValue* find_case(const metrics::JsonValue& doc,
                                    const Case& c) {
  for (const metrics::JsonValue& jc : doc.at("cases").array) {
    if (jc.at("scheme").str() == c.scheme &&
        static_cast<Index>(jc.at("edge").num()) == c.edge)
      return &jc;
  }
  return nullptr;
}

/// Diffs fresh cases against the baseline document; prints one line per
/// failure and returns the failure count.
int compare(const std::vector<Case>& fresh, const metrics::JsonValue& base) {
  int failures = 0;
  const auto fail = [&](const Case& c, const std::string& what) {
    std::cerr << "REGRESSION " << c.scheme << " edge=" << c.edge << ": " << what
              << '\n';
    ++failures;
  };

  // Every failure line names the diverging field and prints both sides
  // ("field: expected <baseline> actual <fresh>") so a CI log alone
  // identifies what moved without re-running the gate locally.
  const int base_version = static_cast<int>(base.at("schema_version").num());
  if (base_version < 1 || base_version > kRegressSchemaVersion) {
    std::cerr << "REGRESSION schema_version: expected 1.."
              << kRegressSchemaVersion << " actual " << base_version << '\n';
    return 1;
  }
  for (const Case& c : fresh) {
    const metrics::JsonValue* jc = find_case(base, c);
    if (!jc) {
      fail(c, "case missing from baseline");
      continue;
    }
    const auto exact = [&](const char* key, std::uint64_t got) {
      const auto want = static_cast<std::uint64_t>(jc->at(key).num());
      if (want != got)
        fail(c, std::string(key) + ": expected " + std::to_string(want) +
                    " actual " + std::to_string(got));
    };
    exact("updates", static_cast<std::uint64_t>(c.updates));
    // The split is deterministic under the page-start first-touch rule,
    // so each side is gated exactly — no tolerance for placement drift.
    exact("local_bytes", c.local_bytes);
    exact("remote_bytes", c.remote_bytes);
    exact("unowned_bytes", c.unowned_bytes);
    // Locality is local/(local+remote) — exact up to the JSON round-trip
    // of the double, hence the near-zero relative tolerance.
    if (!close_rel(jc->at("locality").num(), c.locality, 1e-9))
      fail(c, "locality: expected " +
                  std::to_string(jc->at("locality").num()) + " actual " +
                  std::to_string(c.locality));
    if (!close_rel(jc->at("model_gupdates_per_core").num(),
                   c.model_gupdates_per_core, 0.05))
      fail(c, "model_gupdates_per_core: expected " +
                  std::to_string(jc->at("model_gupdates_per_core").num()) +
                  " actual " + std::to_string(c.model_gupdates_per_core) +
                  " (rel tol 0.05)");
  }
  if (failures > 0)
    std::cerr << "provenance delta (baseline vs candidate):\n"
              << provenance_delta(base);
  return failures;
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("regress",
                 "fixed scheme x size regression matrix with a baseline gate");
  args.add_option("out", "write fresh results as JSON to this file",
                  "BENCH_schemes.json");
  args.add_option("baseline", "compare against this committed baseline", "");
  if (!args.parse(argc, argv)) return 0;

  std::vector<Case> cases;
  for (const std::string& scheme : regress_schemes())
    for (const Index edge : regress_edges()) {
      cases.push_back(run_case(scheme, edge));
      std::cout << scheme << " edge=" << edge << ": updates="
                << cases.back().updates << " locality=" << cases.back().locality
                << " model=" << cases.back().model_gupdates_per_core
                << " Gup/s/core, " << cases.back().seconds << " s\n";
    }

  write_cases(cases, args.get("out"));
  std::cout << "wrote " << args.get("out") << '\n';

  if (const std::string baseline = args.get("baseline"); !baseline.empty()) {
    const int failures = compare(cases, metrics::parse_json_file(baseline));
    if (failures > 0) {
      std::cerr << failures << " regression(s) against " << baseline << '\n';
      return 1;
    }
    std::cout << "no regressions against " << baseline << '\n';
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
