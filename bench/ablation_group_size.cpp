// Ablation: MWD thread-group size x diamond width (tau).
//
// Sweeps every divisor of the thread count (plus "auto" = cores sharing
// one LLC) against a range of tau overrides (plus "auto" = fit the LLC)
// on the nuMWD scheme, and reports wall-clock, the planned geometry
// (tau, ring columns, groups), the busy-time imbalance and the measured
// NUMA locality.  The sweet spot the paper predicts: groups as large as
// one LLC's sharers (so a diamond's working set is cached once, not per
// thread) and tau as deep as that cache allows — larger groups with the
// same tau trade parallel columns for intra-diamond parallelism, while
// forcing tau past the LLC budget turns the diamond back into a
// memory-streaming wavefront.
//
//   ./ablation_group_size [--out=group_size_ablation.json] [--steps=N]
//                         [--threads=N] [--edge=N]
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "metrics/json.hpp"
#include "schemes/mwd_common.hpp"
#include "topology/machine.hpp"

namespace {

using namespace nustencil;

struct Row {
  int group_request = 0;  // 0 = auto
  long tau_request = 0;   // 0 = auto
  double seconds = 0.0;
  double tau = 0.0;
  double columns = 0.0;
  double group_size = 0.0;
  double groups = 0.0;
  double imbalance = 0.0;
  double locality = 0.0;
};

std::string or_auto(long v) { return v == 0 ? "auto" : std::to_string(v); }

Row run_one(const Coord& shape, long steps, int threads, int group,
            long tau, const topology::MachineSpec& machine) {
  schemes::RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = steps;
  cfg.group_size = group;
  cfg.instrument = true;
  cfg.collect_phase_metrics = true;
  cfg.machine = &machine;

  core::Problem problem(shape, core::StencilSpec::paper_3d7p());
  const schemes::RunResult run = schemes::MwdScheme(true, tau).run(problem, cfg);

  Row r;
  r.group_request = group;
  r.tau_request = tau;
  r.seconds = run.seconds;
  r.tau = run.details.at("tau");
  r.columns = run.details.at("columns");
  r.group_size = run.details.at("group_size");
  r.groups = run.details.at("groups");
  r.imbalance = run.phases.imbalance();
  r.locality = run.traffic.locality();
  return r;
}

void write_json(const std::vector<Row>& rows, const Coord& shape, long steps,
                int threads, const std::string& path) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "ablation_group_size: cannot open " + path);
  metrics::JsonWriter w(out);
  w.begin_object();
  w.kv("generator", "bench/ablation_group_size");
  w.kv("scheme", "nuMWD");
  std::string s;
  for (int d = 0; d < shape.rank(); ++d) s += (d ? "x" : "") + std::to_string(shape[d]);
  w.kv("shape", s);
  w.kv("timesteps", steps);
  w.kv("threads", threads);
  w.key("cases").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.kv("group_size_request", or_auto(r.group_request));
    w.kv("tau_request", or_auto(r.tau_request));
    w.kv("seconds", r.seconds);
    w.kv("tau", r.tau);
    w.kv("columns", r.columns);
    w.kv("group_size", r.group_size);
    w.kv("groups", r.groups);
    w.kv("imbalance", r.imbalance);
    w.kv("locality", r.locality);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  NUSTENCIL_CHECK(out.good(), "ablation_group_size: write failed for " + path);
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("ablation_group_size",
                 "nuMWD group size x diamond width sweep");
  args.add_option("out", "write results as JSON to this file",
                  "group_size_ablation.json");
  args.add_option("steps", "time steps per run", "24");
  args.add_option("threads", "worker threads", "4");
  args.add_option("edge", "cubic domain edge", "48");
  if (!args.parse(argc, argv)) return 0;

  const auto machine = topology::xeonX7550();
  const int threads =
      ArgParser::validate_thread_count(args.get_long("threads"), machine.cores());
  const long steps = args.get_long("steps");
  const Index edge = ArgParser::validate_positive("--edge", args.get_long("edge"));
  const Coord shape{edge, edge, edge};

  // Every divisor of the thread count, then 0 for "auto".
  std::vector<int> group_sizes;
  for (int g = 1; g <= threads; ++g)
    if (threads % g == 0) group_sizes.push_back(g);
  group_sizes.push_back(0);
  const std::vector<long> taus = {0, 1, 2, 4, 8};

  Table table("nuMWD group size x tau (" + std::to_string(threads) +
              " threads on the Xeon)");
  table.set_header({"group / tau", "seconds", "tau", "columns", "groups",
                    "imbalance", "locality %"});

  std::vector<Row> rows;
  for (const int group : group_sizes) {
    for (const long tau : taus) {
      rows.push_back(run_one(shape, steps, threads, group, tau, machine));
      const Row& r = rows.back();
      table.add_row("g=" + or_auto(group) + " tau=" + or_auto(tau),
                    {r.seconds, r.tau, r.columns, r.groups, r.imbalance,
                     r.locality * 100.0});
    }
  }
  table.print(std::cout);
  write_json(rows, shape, steps, threads, args.get("out"));
  std::cout << "wrote " << args.get("out") << '\n'
            << "\nDeeper tau cuts memory sweeps (traffic ~ 1/tau) until a\n"
               "diamond outgrows the shared LLC; larger groups keep one\n"
               "diamond per cache but need enough ring columns to feed\n"
               "every group, so the auto plan backs tau off when columns\n"
               "would drop below the group count.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
