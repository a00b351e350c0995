// Trace-driven memory-traffic comparison of all schemes.
//
// Every scheme executes for real with its access stream fed through the
// exact cache simulator of a cache-scaled machine, measuring the memory
// doubles per update each scheme actually needs — the quantity the
// analytic estimates in the figure benches predict.  Run on a domain much
// larger than the toy caches, this is the paper's Section IV-D claim
// ("less than 2 doubles from main memory per update") made measurable
// without any NUMA hardware.
//
//   ./trace_traffic [edge] [steps] [threads]
#include <cstdlib>
#include <iostream>

#include "cachesim/shared.hpp"
#include "common/table.hpp"
#include "perf/model.hpp"
#include "schemes/scheme.hpp"

int main(int argc, char** argv) try {
  using namespace nustencil;
  const Index edge = argc > 1 ? std::atol(argv[1]) : 40;
  const long steps = argc > 2 ? std::atol(argv[2]) : 16;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 2;

  // Scale the Opteron's caches down by 4x so the test domain is "large"
  // relative to them (domain/LLC ~ 8x, like 500^3 against a real LLC)
  // while one base parallelogram (32 KiB) still fits comfortably.
  topology::MachineSpec machine = topology::opteron8222();
  for (auto& c : machine.caches) c.size_bytes /= 4;

  const auto stencil = core::StencilSpec::paper_3d7p();
  Table table("trace-driven memory traffic, " + std::to_string(edge) + "^3, " +
              std::to_string(steps) + " steps, caches/32 (" +
              std::to_string(machine.last_level_cache().size_bytes / 1024) +
              " KiB LLC)");
  table.set_header({"scheme", "simulated mem doubles/update", "analytic estimate",
                    "LLC miss %"});

  for (const auto& name : schemes::scheme_names()) {
    cachesim::SharedHierarchy sim(machine, threads);
    const auto scheme = schemes::make_scheme(name);
    schemes::RunConfig cfg;
    cfg.num_threads = threads;
    cfg.timesteps = steps;
    cfg.cache_sim = &sim;
    cfg.boundary = scheme->default_boundary();
    core::Problem problem(Coord{edge, edge, edge}, stencil);
    const auto result = scheme->run(problem, cfg);

    const auto traffic = sim.traffic();
    const double mem_doubles =
        static_cast<double>(traffic.memory_bytes(sim.line_bytes())) /
        static_cast<double>(result.updates) / 8.0;
    const auto& llc = traffic.level.back();
    const double miss_rate =
        llc.hits + llc.misses > 0
            ? static_cast<double>(llc.misses) / static_cast<double>(llc.hits + llc.misses)
            : 0.0;
    const auto est = scheme->estimate_traffic(machine, problem.shape(), stencil,
                                              threads, steps);
    table.add_row(name, {mem_doubles, est.mem_doubles_per_update, miss_rate * 100.0});
  }
  table.print(std::cout);
  std::cout << "\nThe naive sweep re-streams both buffers every step (~2+ "
               "doubles/update); the CATS/CORALS families reuse values across "
               "steps — the mechanism behind every figure of the paper.\n"
               "The Pochoir/PLuTo stand-ins tile only the highest-stride "
               "dimension, so their per-step working set exceeds the scaled "
               "cache here and their reuse vanishes — the real systems tile "
               "all dimensions (tuned tiles / full recursion), which is why "
               "the figure benches use analytic estimates for them.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
