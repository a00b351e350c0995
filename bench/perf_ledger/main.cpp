// perf_ledger: the measured, per-layer benchmark of the stencil engine on
// the host it runs on.  See README.md for the metric dictionary, the
// workloads and the layer -> end-to-end metric map.
//
//   perf_ledger --workload W [--seed S] [--seconds N] [--trace 0|1]
//               [--out RUNS.jsonl] [--spans-out F.spans.json]
//   perf_ledger --compare A.jsonl B.jsonl [--benchmark-json BENCHMARK.json]
//   perf_ledger --smoke [--benchmark-json BENCHMARK.json]
//
// One invocation measures one workload.  Every round runs NaiveSSE,
// nuCATS, nuMWD and nuCORALS once each, so host drift hits every scheme
// alike; traced rounds start with serial (NaiveSSE on one thread).
// Rounds repeat until --seconds have passed.  --trace 0 reports the
// end-to-end metrics;
// --trace 1 runs the per-layer microbenchmarks, alternates untraced rounds
// with rounds that collect phase totals and kernel counters, adds one
// NUMA-instrumented round and reports the per-layer metrics.  Every rep's
// output is checked bitwise against core::reference_run.  The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Exit status: 0 on success; 1 when a rep threw or differed from the
// reference (after printing every metric), when --compare finds a
// regression, or when --smoke fails; 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "common/args.hpp"
#include "common/timer.hpp"
#include "core/executor.hpp"
#include "core/reference.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "metrics/json.hpp"
#include "perf/model.hpp"
#include "schemes/scheme.hpp"

namespace {

using namespace nustencil;
using namespace perf_ledger;

/// One benchmark input: the shape, stencil and schedule every scheme of a
/// round runs.  Why each exists is in README.md.  Step counts are kept
/// short so a run collects many reps per scheme: on a shared host single
/// reps scatter by 10-30%, and only the median of many is steady.
struct Workload {
  std::string name;
  Coord shape;
  bool banded = false;
  long steps = 1;
  sched::Schedule schedule = sched::Schedule::Static;
  bool warmup = false;  ///< one discarded round before timing
};

std::vector<Workload> workloads() {
  using sched::Schedule;
  return {
      {"cache-7pt", Coord{128, 128, 128}, false, 32, Schedule::Static, true},
      {"dram-7pt", Coord{256, 256, 256}, false, 4, Schedule::Static, false},
      {"dram-banded", Coord{192, 192, 192}, true, 4, Schedule::Static, false},
      {"sync-small", Coord{67, 61, 59}, false, 250, Schedule::Steal, true},
  };
}

core::StencilSpec stencil_of(const Workload& w) {
  return w.banded ? core::StencilSpec::banded_star(3, 1) : core::StencilSpec::paper_3d7p();
}

/// nuCATS pipelines along z and needs that axis frozen (Dirichlet).
core::Boundary boundary_of(const std::string& scheme) {
  core::Boundary bc = core::Boundary::periodic();
  if (scheme == "nuCATS") bc[2] = core::BoundaryKind::Dirichlet;
  return bc;
}

int host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Peak resident set of this process image so far, in MiB.  VmHWM, not
/// getrusage's ru_maxrss: the latter keeps the high-water mark of the
/// shell that exec'd the binary, which outweighs a small workload.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw Error("VmHWM missing from /proc/self/status");
}

/// 64-bit FNV-1a over the field's words.  Each step xors one word in and
/// multiplies by an odd constant, a bijection, so a single differing word
/// always changes the fingerprint: equal fingerprints stand in for a
/// bitwise comparison without keeping the rep's output alive.
std::uint64_t fingerprint(const core::Field& f) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Index i = 0; i < f.volume(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, f.data() + i, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

/// The reference result on a fresh problem with the same seed and
/// boundary; the Dirichlet branch mirrors `nustencil --verify`.
std::uint64_t reference_fingerprint(const Workload& w, const core::Boundary& bc,
                                    unsigned seed, SpanLog* spans) {
  Span span(spans, "core::reference_run");
  core::Problem expected(w.shape, stencil_of(w));
  expected.initialize(seed);
  if (bc.all_periodic(3)) {
    core::reference_run(expected, w.steps);
  } else {
    const core::Box interior = core::updatable_box(w.shape, expected.stencil(), bc);
    const double* u0 = expected.buffer(0).data();
    double* u1 = expected.buffer(1).data();
    const Index plane = w.shape[0] * w.shape[1];
    for (Index z = 0; z < w.shape[2]; ++z)
      if (z < interior.lo[2] || z >= interior.hi[2])
        std::copy(u0 + z * plane, u0 + (z + 1) * plane, u1 + z * plane);
    core::Executor exec(expected);
    for (long t = 0; t < w.steps; ++t) exec.update_box(interior, t, 0);
  }
  return fingerprint(expected.buffer(w.steps));
}

/// One scheme configuration of a round.
struct Case {
  std::string label;
  std::string scheme;
  int threads;
};

/// The serial baseline is a per-layer metric: on a shared host a single
/// thread takes the speed of whichever core it lands on, which swings
/// between runs by more than any end-to-end bound allows (README.md,
/// "Measured noise").  Untraced runs leave it out and give its time to
/// the schemes the end-to-end metrics judge.
std::vector<Case> round_cases(int nproc, bool with_serial) {
  std::vector<Case> cases = {{"NaiveSSE", "NaiveSSE", nproc},
                             {"nuCATS", "nuCATS", nproc},
                             {"nuMWD", "nuMWD", nproc},
                             {"nuCORALS", "nuCORALS", nproc}};
  if (with_serial) cases.insert(cases.begin(), {"serial", "NaiveSSE", 1});
  return cases;
}

enum class Observe {
  Off,           ///< nothing beyond what a plain run does
  Traced,        ///< phase totals + kernel/sched counters (metrics::Registry)
  Instrumented,  ///< first-touch page table under the simulated Xeon X7550
};

struct Rep {
  std::string label;
  Observe observe = Observe::Off;
  bool timed = false;  ///< false for the warm-up and instrumented rounds
  bool ok = false;
  core::Boundary boundary;
  double setup_s = 0.0;  ///< Problem ctor + Scheme::run, minus the solve
  std::uint64_t fingerprint = 0;
  schemes::RunResult result;
  metrics::Snapshot counters;
};

core::Problem make_problem(const Workload& w, SpanLog* spans) {
  Span span(spans, "core::Problem");
  return core::Problem(w.shape, stencil_of(w));
}

Rep run_rep(const Workload& w, const Case& c, Observe observe, bool timed, unsigned seed,
            SpanLog* spans) {
  Rep rep;
  rep.label = c.label;
  rep.observe = observe;
  rep.timed = timed;
  rep.boundary = boundary_of(c.scheme);
  Span span(spans, "rep." + c.label);
  try {
    const std::unique_ptr<schemes::Scheme> scheme = schemes::make_scheme(c.scheme);
    schemes::RunConfig cfg;
    cfg.num_threads = c.threads;
    cfg.timesteps = w.steps;
    cfg.boundary = rep.boundary;
    cfg.schedule = w.schedule;
    cfg.seed = seed;
    metrics::Registry registry(c.threads);
    if (observe == Observe::Traced) {
      cfg.collect_phase_metrics = true;
      cfg.metrics = &registry;
    } else if (observe == Observe::Instrumented) {
      // Scatter places the threads on distinct simulated sockets, so
      // remote traffic shows; compact would put all of them on node 0.
      // Owner-computes keeps the locality an exact count: with stealing
      // it depends on which thread happened to run a stolen tile.
      cfg.instrument = true;
      cfg.pin_policy = numa::PinPolicy::Scatter;
      cfg.schedule = sched::Schedule::Static;
    }
    Timer wall;
    core::Problem problem = make_problem(w, spans);
    {
      Span run(spans, "Scheme::run");
      rep.result = scheme->run(problem, cfg);
    }
    rep.setup_s = wall.seconds() - rep.result.seconds;
    Span hash(spans, "fingerprint");
    rep.fingerprint = fingerprint(problem.buffer(w.steps));
    rep.counters = registry.snapshot();
    rep.ok = true;
  } catch (const std::exception& e) {
    std::cerr << "perf_ledger: " << w.name << " " << c.label << " failed: " << e.what()
              << '\n';
  }
  return rep;
}

struct RunOutput {
  Results results;
  int attempted = 0;
  int failed = 0;
};

std::uint64_t counter(const metrics::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Samples of `f(rep)` over the successful reps of `label` that match `pick`.
template <typename Pick, typename F>
std::vector<double> collect(const std::vector<Rep>& reps, const std::string& label,
                            Pick pick, F f) {
  std::vector<double> out;
  for (const Rep& r : reps)
    if (r.ok && r.label == label && pick(r)) out.push_back(f(r));
  return out;
}

bool timed_off(const Rep& r) { return r.timed && r.observe == Observe::Off; }
bool traced(const Rep& r) { return r.observe == Observe::Traced; }
bool instrumented(const Rep& r) { return r.observe == Observe::Instrumented; }

/// The microbenchmark half of the per-layer metrics.
void measure_layers(const Workload& w, int nproc, const MicroScale& scale, SpanLog* spans,
                    Results& res) {
  const std::size_t llc = host_llc_bytes();
  const std::size_t bytes = scale.triad_array_bytes ? scale.triad_array_bytes : 4 * llc;
  std::cout << "# host.triad: 3 arrays of " << static_cast<double>(bytes) / 1048576.0
            << " MiB each; host LLC " << static_cast<double>(llc) / 1048576.0 << " MiB\n";
  std::vector<double> triad, triad_1t;
  {
    Span span(spans, "host.triad");
    triad = triad_gbs(nproc, bytes, scale.reps, spans);
  }
  {
    Span span(spans, "host.triad_1t");
    triad_1t = triad_gbs(1, bytes, scale.reps, spans);
  }
  res.add("host.triad_gbs", "GB/s", triad);
  res.add("host.triad_gbs_1t", "GB/s", triad_1t);

  CoreSweep sweep;
  {
    Span span(spans, "core.sweep");
    sweep = core_sweep(w.shape, stencil_of(w), scale, spans);
  }
  // The sweep is single-threaded, so its ceiling is the 1-thread triad.
  const double ceiling = summarize(triad_1t).median;
  for (std::size_t i = 0; i < sweep.whole_s.size(); ++i) {
    const double whole = sweep.whole_s[i], tiled = sweep.tiled_s[i];
    const double gbs = sweep.sweep_bytes / whole * 1e-9;
    res.add("core.sweep_gbs", "GB/s", gbs);
    res.add("core.sweep_bw_frac", "ratio", gbs / ceiling);
    res.add("core.tile_overhead_ns", "ns",
            (tiled - whole) / static_cast<double>(sweep.tiles) * 1e9);
    res.add("core.short_row_slowdown", "ratio", tiled / whole);
  }
  {
    Span span(spans, "core.alloc");
    res.add("core.alloc_s", "s", problem_alloc_s(w.shape, stencil_of(w), scale.reps, spans));
  }
  {
    Span span(spans, "thread.barrier");
    res.add("thread.barrier_ns", "ns", barrier_ns(nproc, scale, spans));
  }
  {
    Span span(spans, "thread.progress_handoff");
    res.add("thread.progress_handoff_ns", "ns", progress_handoff_ns(nproc, scale, spans));
  }
  {
    Span span(spans, "thread.team_run");
    res.add("thread.team_run_us", "us", team_run_us(nproc, scale.reps, spans));
  }
  {
    Span span(spans, "sched.task");
    res.add("sched.task_ns", "ns", task_ns(nproc, scale, spans));
  }
}

/// The per-layer metrics read from the traced and instrumented reps.
void scheme_layers(const Workload& w, const std::vector<Case>& cases,
                   const std::vector<Rep>& reps, SpanLog* spans, Results& res) {
  using trace::Phase;
  const auto gups = [](const Rep& r) { return r.result.gupdates_per_second(); };
  res.add("gups.serial", "Gupdates/s", collect(reps, "serial", timed_off, gups));

  std::vector<Case> parallel;
  for (const Case& c : cases)
    if (c.label != "serial") parallel.push_back(c);

  for (const Case& c : parallel)
    res.add("sched." + c.label + ".steal_success_frac", "ratio",
            collect(reps, c.label, traced, [](const Rep& r) {
              // No pool (static schedule) means no attempts: reported as 0.
              const std::uint64_t attempts = r.result.sched.total_attempts();
              return attempts ? static_cast<double>(r.result.sched.total_steals()) /
                                    static_cast<double>(attempts)
                              : 0.0;
            }));

  const std::pair<const char*, Phase> phases[] = {{"compute_s", Phase::Tile},
                                                  {"init_s", Phase::Init},
                                                  {"barrier_wait_s", Phase::BarrierWait},
                                                  {"spin_wait_s", Phase::SpinWait}};
  for (const Case& c : parallel) {
    const std::string p = "schemes." + c.label + ".";
    for (const auto& [name, phase] : phases)
      res.add(p + name, "s", collect(reps, c.label, traced, [phase = phase](const Rep& r) {
                return r.result.phases.total_s(phase);
              }));
    res.add(p + "imbalance", "ratio", collect(reps, c.label, traced, [](const Rep& r) {
              return r.result.phases.imbalance();
            }));
    res.add(p + "tiles", "count", collect(reps, c.label, traced, [](const Rep& r) {
              return static_cast<double>(counter(r.counters, "kernel/tiles"));
            }));
    res.add(p + "row_cells", "cells", collect(reps, c.label, traced, [](const Rep& r) {
              std::uint64_t rows = 0;
              for (const auto& [name, value] : r.counters.counters)
                if (name.rfind("kernel/rows/", 0) == 0) rows += value;
              const double fast = static_cast<double>(r.result.updates) -
                                  static_cast<double>(counter(r.counters, "kernel/slow_cells"));
              return rows ? fast / static_cast<double>(rows) : 0.0;
            }));
    res.add(p + "slow_cells_frac", "ratio", collect(reps, c.label, traced, [](const Rep& r) {
              return static_cast<double>(counter(r.counters, "kernel/slow_cells")) /
                     static_cast<double>(std::max<Index>(1, r.result.updates));
            }));
  }

  for (const Case& c : parallel)
    res.add("numa." + c.label + ".local_frac", "ratio",
            collect(reps, c.label, instrumented,
                    [](const Rep& r) { return r.result.traffic.locality(); }));

  std::vector<double> model, measured;
  {
    Span span(spans, "perf::model_scheme");
    const topology::MachineSpec host = topology::host();
    const core::StencilSpec stencil = stencil_of(w);
    for (const Case& c : parallel) {
      const auto scheme = schemes::make_scheme(c.scheme);
      perf::ModelInput in;
      in.machine = &host;
      in.stencil = &stencil;
      in.threads = c.threads;
      in.traffic = scheme->estimate_traffic(host, w.shape, stencil, c.threads, w.steps);
      std::tie(in.sync_overhead, in.sync_per_socket) = perf::scheme_sync_overhead(c.scheme);
      model.push_back(perf::model_scheme(in).gupdates_per_core);
      measured.push_back(summarize(collect(reps, c.label, timed_off, gups)).median);
    }
  }
  res.add("perf.model_rank_rho", "ratio", spearman(model, measured));

  for (const Case& c : cases) {
    const auto solve = [](const Rep& r) { return r.result.seconds; };
    const double off = summarize(collect(reps, c.label, timed_off, solve)).median;
    const double on = summarize(collect(reps, c.label, traced, solve)).median;
    if (off > 0 && on > 0) res.add("observe.trace_overhead_pct", "%", (on / off - 1.0) * 100.0);
  }
}

RunOutput measure(const Workload& w, unsigned seed, double seconds, bool trace,
                  const MicroScale& scale, SpanLog* spans) {
  const int nproc = host_threads();
  const std::vector<Case> cases = round_cases(nproc, trace);
  RunOutput out;
  std::vector<Rep> reps;
  const auto round = [&](Observe observe, bool timed) {
    for (const Case& c : cases) reps.push_back(run_rep(w, c, observe, timed, seed, spans));
  };

  // The budget covers the microbenchmarks, the warm-up and the rounds; a
  // round starts only while it would end about on time.  The traced mode
  // alternates plain and traced rounds and needs at least one of each.
  Timer budget;
  if (trace) measure_layers(w, nproc, scale, spans, out.results);
  if (w.warmup) round(Observe::Off, false);
  int rounds = 0;
  double last = 0.0;
  do {
    Timer round_timer;
    round(trace && rounds % 2 == 1 ? Observe::Traced : Observe::Off, true);
    last = round_timer.seconds();
    ++rounds;
  } while (budget.seconds() + 0.5 * last < seconds || (trace && rounds < 2));
  if (trace) round(Observe::Instrumented, false);
  const double rss = peak_rss_mib();  // before the reference allocates

  {
    Span span(spans, "verify");
    std::optional<std::uint64_t> expected[2];  // periodic, z-Dirichlet
    for (const Rep& r : reps) {
      ++out.attempted;
      if (!r.ok) {
        ++out.failed;
        continue;
      }
      std::optional<std::uint64_t>& e = expected[r.boundary.all_periodic(3) ? 0 : 1];
      if (!e) e = reference_fingerprint(w, r.boundary, seed, spans);
      if (r.fingerprint != *e) {
        ++out.failed;
        std::cerr << "perf_ledger: " << w.name << " " << r.label
                  << " differs from core::reference_run\n";
      }
    }
  }

  if (trace) {
    scheme_layers(w, cases, reps, spans, out.results);
  } else {
    for (const Case& c : cases)
      out.results.add("gups." + c.label, "Gupdates/s",
                      collect(reps, c.label, timed_off,
                              [](const Rep& r) { return r.result.gupdates_per_second(); }));
    for (const Rep& r : reps)
      if (r.ok && timed_off(r)) out.results.add("setup_s", "s", r.setup_s);
    out.results.add("peak_rss_mib", "MiB", rss);
  }
  return out;
}

void print_lines(std::ostream& os, const std::string& workload, const RunOutput& out) {
  for (const Metric& m : out.results.metrics()) {
    const Summary s = summarize(m.samples);
    os << m.name << " workload=" << workload << " value=" << s.median << " unit=" << m.unit
       << " n=" << s.n << " median=" << s.median << " q1=" << s.q1 << " q3=" << s.q3 << '\n';
  }
  os << "fail_frac workload=" << workload << " value="
     << static_cast<double>(out.failed) / std::max(1, out.attempted)
     << " unit=ratio n=" << out.attempted << " failed=" << out.failed << '\n';
}

void write_metrics(metrics::JsonWriter& w, const Results& results, bool quartiles) {
  w.begin_object();
  for (const Metric& m : results.metrics()) {
    const Summary s = summarize(m.samples);
    w.key(m.name).begin_object().kv("value", s.median).kv("unit", m.unit);
    if (quartiles) w.kv("n", s.n).kv("median", s.median).kv("q1", s.q1).kv("q3", s.q3);
    w.end_object();
  }
  w.end_object();
}

/// The run's record for --compare: one JSON object per line.
void append_record(const std::string& path, const std::string& workload, unsigned seed,
                   bool trace, double seconds, const RunOutput& out) {
  std::ofstream os(path, std::ios::app);
  NUSTENCIL_CHECK(os.good(), "cannot open --out file " + path);
  metrics::JsonWriter w(os);
  w.begin_object()
      .kv("workload", workload)
      .kv("seed", static_cast<std::int64_t>(seed))
      .kv("trace", trace)
      .kv("seconds", seconds)
      .kv("threads", host_threads())
      .kv("attempted", out.attempted)
      .kv("failed", out.failed)
      .key("metrics");
  write_metrics(w, out.results, true);
  w.end_object();
  os << '\n';
}

std::vector<std::string> metric_names(const metrics::JsonValue& spec, const char* list) {
  std::vector<std::string> names;
  for (const metrics::JsonValue& m : spec.at(list).array) names.push_back(m.at("name").str());
  return names;
}

/// Every workload on 24^3 for 4 steps, untraced and traced, checking the
/// printed metric names against BENCHMARK.json, zero failures and
/// non-negative span self times.
int smoke(const std::string& benchmark_json) {
  const metrics::JsonValue spec = metrics::parse_json_file(benchmark_json);
  const std::vector<std::string> expected[2] = {metric_names(spec, "end_to_end"),
                                                metric_names(spec, "per_layer")};
  MicroScale scale;
  scale.triad_array_bytes = std::size_t{8} << 20;
  scale.reps = 2;
  scale.sync_iters = 200;
  scale.tasks = 200;
  scale.sweep_seconds = 0.0;
  bool ok = true;
  const auto fail = [&](const std::string& what) {
    std::cerr << "perf_ledger --smoke: " << what << '\n';
    ok = false;
  };
  for (Workload w : workloads()) {
    w.shape = Coord{24, 24, 24};
    w.steps = 4;
    for (const bool trace : {false, true}) {
      SpanLog spans;
      const RunOutput out = measure(w, 42, 0.0, trace, scale, trace ? &spans : nullptr);
      print_lines(std::cout, w.name, out);
      const std::vector<std::string>& want = expected[trace ? 1 : 0];
      std::set<std::string> printed;
      for (const Metric& m : out.results.metrics()) {
        printed.insert(m.name);
        if (std::find(want.begin(), want.end(), m.name) == want.end())
          fail(w.name + ": metric " + m.name + " is not in BENCHMARK.json");
        if (m.samples.empty()) fail(w.name + ": metric " + m.name + " has no samples");
      }
      for (const std::string& name : want)
        if (!printed.count(name)) fail(w.name + ": metric " + name + " not printed");
      if (out.failed != 0) fail(w.name + ": fail_frac > 0");
      for (const std::int64_t self : spans.self_ns())
        if (self < 0) fail(w.name + ": negative span self time");
      if (trace && spans.spans().empty()) fail(w.name + ": no spans recorded");
    }
  }
  std::cout << (ok ? "perf_ledger smoke: ok\n" : "perf_ledger smoke: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("perf_ledger",
                 "measured, per-layer benchmark of the stencil engine on this host");
  args.add_option("workload", "cache-7pt, dram-7pt, dram-banded or sync-small", "");
  args.add_option("seed", "initial-condition seed (RunConfig.seed and the reference)", "42");
  args.add_option("seconds", "time budget of the measured rounds", "30");
  args.add_option("trace", "0: end-to-end metrics; 1: per-layer metrics", "0");
  args.add_option("out", "append this run's record (JSON line) to this file", "");
  args.add_option("spans-out", "write the benchmark-side spans (traced runs)", "");
  args.add_option("benchmark-json", "metric list and bounds", "BENCHMARK.json");
  args.add_flag("compare", "compare two record files: --compare A.jsonl B.jsonl");
  args.add_flag("smoke", "run every workload path on tiny shapes and check the output");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (args.get_flag("smoke")) return smoke(args.get("benchmark-json"));
    if (args.get_flag("compare")) {
      NUSTENCIL_CHECK(args.positionals().size() == 2, "--compare needs two record files");
      return compare_records(args.positionals()[0], args.positionals()[1],
                             args.get("benchmark-json"), std::cout);
    }
    std::optional<Workload> workload;
    for (const Workload& w : workloads())
      if (w.name == args.get("workload")) workload = w;
    NUSTENCIL_CHECK(workload.has_value(), "unknown --workload '" + args.get("workload") + "'");
    const long seed = args.get_long("seed");
    NUSTENCIL_CHECK(seed >= 0 && seed <= 0xffffffffL, "--seed must fit 32 unsigned bits");
    const double seconds = ArgParser::validate_positive_seconds("--seconds",
                                                                args.get_double("seconds"));
    const std::string trace_arg = args.get("trace");
    NUSTENCIL_CHECK(trace_arg == "0" || trace_arg == "1", "--trace must be 0 or 1");
    const bool trace = trace_arg == "1";

    SpanLog spans;
    const RunOutput out = measure(*workload, static_cast<unsigned>(seed), seconds, trace,
                                  MicroScale{}, trace ? &spans : nullptr);
    print_lines(std::cout, workload->name, out);
    if (!args.get("out").empty())
      append_record(args.get("out"), workload->name, static_cast<unsigned>(seed), trace,
                    seconds, out);
    if (trace && !args.get("spans-out").empty()) {
      std::ofstream os(args.get("spans-out"));
      NUSTENCIL_CHECK(os.good(), "cannot open --spans-out file");
      spans.write_json(os);
    }
    metrics::JsonWriter json(std::cout);
    json.begin_object()
        .kv("correct", out.failed == 0)
        .kv("attempted", out.attempted)
        .kv("failed", out.failed)
        .key("metrics");
    write_metrics(json, out.results, false);
    json.end_object();
    std::cout << std::endl;
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perf_ledger: " << e.what() << '\n';
    return 2;
  }
}
