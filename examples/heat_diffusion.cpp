// Heat diffusion: compares all nine schemes on an explicit 3D diffusion
// solve (the motivating workload of the paper's introduction) and prints
// wall-clock throughput plus, when instrumented, the measured
// data-to-core affinity of each scheme.
//
//   ./heat_diffusion [edge] [steps] [threads]
#include <cstdlib>
#include <memory>
#include <iomanip>
#include <iostream>

#include "common/table.hpp"
#include "core/reference.hpp"
#include "schemes/scheme.hpp"

int main(int argc, char** argv) try {
  using namespace nustencil;
  const Index edge = argc > 1 ? std::atol(argv[1]) : 48;
  const long steps = argc > 2 ? std::atol(argv[2]) : 20;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 16;

  const core::StencilSpec stencil = core::StencilSpec::paper_3d7p();

  // Reference results, each computed once (lazily for the Dirichlet
  // variant that only CATS/nuCATS use).
  core::Problem expected(Coord{edge, edge, edge}, stencil);
  expected.initialize();
  core::reference_run(expected, steps);
  std::unique_ptr<core::Problem> dirichlet_ref;

  Table table("heat diffusion, " + std::to_string(edge) + "^3, " +
              std::to_string(steps) + " steps, " + std::to_string(threads) +
              " threads");
  table.set_header({"scheme", "Gupdates/s", "locality %", "max rel diff"});

  for (const auto& name : schemes::scheme_names()) {
    const auto scheme = schemes::make_scheme(name);
    schemes::RunConfig config;
    config.num_threads = threads;
    config.timesteps = steps;
    config.instrument = true;  // measure NUMA affinity under the Xeon topology
    config.boundary = scheme->default_boundary();

    core::Problem problem(Coord{edge, edge, edge}, stencil);
    schemes::RunResult result;
    try {
      result = scheme->run(problem, config);
    } catch (const Error& e) {
      // e.g. a scheme whose tiling needs a larger domain for this thread
      // count; report it and keep comparing the others.
      std::cerr << name << " skipped: " << e.what() << '\n';
      continue;
    }

    double diff = -1.0;
    if (config.boundary.all_periodic(3)) {
      diff = core::max_rel_diff(problem.buffer(steps), expected.buffer(steps));
    } else {
      // CATS/nuCATS run with a Dirichlet wavefront dimension; verify
      // against a reference with the same boundary (built once).
      if (!dirichlet_ref) {
        dirichlet_ref =
            std::make_unique<core::Problem>(Coord{edge, edge, edge}, stencil);
        dirichlet_ref->initialize();
        core::reference_run(*dirichlet_ref, steps, config.boundary);
      }
      diff = core::max_rel_diff(problem.buffer(steps), dirichlet_ref->buffer(steps));
    }
    table.add_row(name, {result.gupdates_per_second(),
                         result.traffic.locality() * 100.0, diff});
  }
  table.print(std::cout);
  std::cout << "\n(NUMA-aware schemes keep most traffic node-local under the "
               "simulated 4-socket Xeon topology; locality is measured, not "
               "modelled.)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
