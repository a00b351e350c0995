// Ablation: the thread-parallelogram height tau (Section III-C).
//
// tau trades temporal locality (larger tau = deeper time tiling, fewer
// layer barriers, less memory streaming) against data-to-core affinity
// (the fraction of data processed by one thread but allocated by another
// is tau/(2b) per decomposed dimension for s=1).  The paper settles on
// tau = b/(2s), i.e. 75% locality.  This bench sweeps tau and reports the
// *measured* locality plus the modelled per-core performance on the Xeon.
//
//   ./ablation_tau [edge] [threads]
#include <algorithm>
#include <cstdlib>
#include <vector>
#include <iostream>

#include "common/table.hpp"
#include "perf/model.hpp"
#include "schemes/corals_common.hpp"

int main(int argc, char** argv) {
  using namespace nustencil;
  const Index edge = argc > 1 ? std::atol(argv[1]) : 48;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 16;
  const auto machine = topology::xeonX7550();
  const auto stencil = core::StencilSpec::paper_3d7p();

  // Default b for this configuration, to express the sweep in b fractions.
  core::Problem probe(Coord{edge, edge, edge}, stencil);
  schemes::RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = 12;
  cfg.instrument = true;
  cfg.machine = &machine;
  const auto base_run = schemes::CoralsScheme(true).run(probe, cfg);
  const long b = static_cast<long>(base_run.details.at("b"));

  Table table("tau ablation (nuCORALS, " + std::to_string(edge) + "^3, " +
              std::to_string(threads) + " threads; paper default tau=b/2)");
  table.set_header({"tau", "measured locality %", "layers", "model Gup/s per core"});

  std::vector<long> taus = {std::max(1L, b / 8), std::max(1L, b / 4),
                            std::max(1L, b / 2), b, 2 * b};
  taus.erase(std::unique(taus.begin(), taus.end()), taus.end());
  for (const long tau : taus) {
    core::Problem problem(Coord{edge, edge, edge}, stencil);
    schemes::CoralsParams params;
    params.tau_override = tau;
    const schemes::CoralsScheme scheme(true, params);
    const auto run = scheme.run(problem, cfg);

    perf::ModelInput in;
    in.machine = &machine;
    in.stencil = &stencil;
    in.threads = threads;
    in.traffic = scheme.estimate_traffic(machine, Coord{200, 200, 200}, stencil,
                                         threads, 100);
    // Larger tau lowers the layer-streaming traffic proportionally.
    in.traffic.mem_doubles_per_update *= static_cast<double>(b / 2) / tau;
    in.locality = run.traffic.locality();
    in.node_demand.assign(run.traffic.bytes_from_node.begin(),
                          run.traffic.bytes_from_node.end());
    in.sync_overhead = perf::scheme_sync_overhead("nuCORALS").first;
    table.add_row("b*" + std::to_string(static_cast<double>(tau) / b).substr(0, 4),
                  {run.traffic.locality() * 100.0,
                   static_cast<double>((cfg.timesteps + tau - 1) / tau),
                   perf::model_scheme(in).gupdates_per_core});
  }
  table.print(std::cout);
  if (machine.active_sockets(threads) == 1)
    std::cout << "\nNOTE: " << threads << " threads fit on one socket of the "
              << machine.name << " — all traffic is node-local regardless of "
                 "tau. Use >= " << machine.cores_per_socket + 1
              << " threads to see the trade-off.\n";
  std::cout << "\nLocality falls as tau grows (tau/2b of the data is processed "
               "remotely per decomposed dimension); the paper's tau = b/2 keeps "
               "~75% locality while amortising the layer barriers.\n";
  return 0;
}
