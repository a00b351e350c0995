// Ablation: tile schedule (static owner-computes vs NUMA-affine work
// stealing vs node-local stealing).
//
// Runs each schedule on a deliberately skewed domain — 67x67x4 cut into
// z-slabs of 2/1/1 planes across 3 threads, so the static owner-computes
// assignment leaves one thread with twice the work — plus a cubic nuCATS
// case, and reports the per-thread busy-time imbalance (max/mean), the
// measured NUMA locality, and the steal counters.  Stealing should pull
// the imbalance towards 1.0 while keeping locality within a few points
// of static (thieves take from the *far* end of the nearest victim, so
// most tiles still run on their owner's node).
//
//   ./ablation_schedule [--out=schedule_ablation.json] [--steps=N] [--threads=N]
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "metrics/json.hpp"
#include "schemes/scheme.hpp"
#include "topology/machine.hpp"

namespace {

using namespace nustencil;

struct Case {
  std::string scheme;
  Coord shape;
  long steps = 0;
};

struct Row {
  Case c;
  std::string schedule;
  double seconds = 0.0;
  double imbalance = 0.0;
  double locality = 0.0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_fails = 0;
  std::uint64_t stolen_updates = 0;
};

std::string shape_str(const Coord& shape) {
  std::string s;
  for (int d = 0; d < shape.rank(); ++d)
    s += (d ? "x" : "") + std::to_string(shape[d]);
  return s;
}

Row run_one(const Case& c, sched::Schedule schedule, int threads,
            const topology::MachineSpec& machine) {
  schemes::RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = c.steps;
  cfg.schedule = schedule;
  cfg.instrument = true;
  cfg.collect_phase_metrics = true;
  cfg.machine = &machine;
  const auto scheme = schemes::make_scheme(c.scheme);
  cfg.boundary = scheme->default_boundary();

  core::Problem problem(c.shape, core::StencilSpec::paper_3d7p());
  const schemes::RunResult run = scheme->run(problem, cfg);

  Row r;
  r.c = c;
  r.schedule = sched::schedule_name(schedule);
  r.seconds = run.seconds;
  r.imbalance = run.phases.imbalance();
  r.locality = run.traffic.locality();
  r.steal_attempts = run.sched.total_attempts();
  r.steals = run.sched.total_steals();
  r.steal_fails = run.sched.total_fails();
  r.stolen_updates = run.sched.total_stolen_updates();
  return r;
}

void write_json(const std::vector<Row>& rows, int threads,
                const std::string& path) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "ablation_schedule: cannot open " + path);
  metrics::JsonWriter w(out);
  w.begin_object();
  w.kv("generator", "bench/ablation_schedule");
  w.kv("threads", threads);
  w.key("cases").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.kv("scheme", r.c.scheme);
    w.kv("shape", shape_str(r.c.shape));
    w.kv("timesteps", r.c.steps);
    w.kv("schedule", r.schedule);
    w.kv("seconds", r.seconds);
    w.kv("imbalance", r.imbalance);
    w.kv("locality", r.locality);
    w.kv("steal_attempts", r.steal_attempts);
    w.kv("steals", r.steals);
    w.kv("steal_fails", r.steal_fails);
    w.kv("stolen_updates", r.stolen_updates);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  NUSTENCIL_CHECK(out.good(), "ablation_schedule: write failed for " + path);
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("ablation_schedule",
                 "static vs steal vs steal_local on a skewed domain");
  args.add_option("out", "write results as JSON to this file",
                  "schedule_ablation.json");
  args.add_option("steps", "time steps for the skewed case", "400");
  args.add_option("threads", "worker threads", "3");
  if (!args.parse(argc, argv)) return 0;

  const auto machine = topology::xeonX7550();
  const int threads =
      ArgParser::validate_thread_count(args.get_long("threads"), machine.cores());
  const long steps = args.get_long("steps");

  // The skewed flagship (2/1/1 z-planes under 3 threads) plus a cubic
  // temporal-blocking case where stealing must respect dependencies.
  const std::vector<Case> cases = {
      {"NaiveSSE", Coord{67, 67, 4}, steps},
      {"nuCATS", Coord{67, 67, 67}, std::max<long>(1, steps / 10)},
  };

  Table table("schedule ablation (" + std::to_string(threads) +
              " threads on the Xeon)");
  table.set_header({"scheme / schedule", "seconds", "imbalance", "locality %",
                    "steals", "stolen updates"});

  std::vector<Row> rows;
  for (const Case& c : cases) {
    for (const auto schedule : {sched::Schedule::Static, sched::Schedule::Steal,
                                sched::Schedule::StealLocal}) {
      rows.push_back(run_one(c, schedule, threads, machine));
      const Row& r = rows.back();
      table.add_row(r.c.scheme + " " + shape_str(r.c.shape) + " " + r.schedule,
                    {r.seconds, r.imbalance, r.locality * 100.0,
                     static_cast<double>(r.steals),
                     static_cast<double>(r.stolen_updates)});
    }
  }
  table.print(std::cout);
  write_json(rows, threads, args.get("out"));
  std::cout << "wrote " << args.get("out") << '\n'
            << "\nStatic leaves the 2-plane owner ~1.5x busier than the mean;\n"
               "stealing lets the 1-plane owners take tiles from the far end\n"
               "of its deque, pulling imbalance towards 1.0 without moving\n"
               "locality (victims are ranked by NUMA distance, so tiles\n"
               "rarely cross sockets under compact pinning).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
