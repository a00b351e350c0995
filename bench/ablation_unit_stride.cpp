// Ablation: decomposing the unit-stride dimension (Section III-D).
//
// The paper never cuts the unit-stride dimension, citing bandwidth
// utilisation [Datta'08, Kamil'05]: cutting x shortens the contiguous
// runs every kernel invocation streams, wasting part of each cache line
// at tile boundaries and defeating the hardware prefetcher.  This bench
// compares the default decomposition — x never decomposed, so every base
// parallelogram spans whole unskewed rows — against ones that cut x,
// where x is skewed like any decomposed dimension and the base recursion
// cuts it further.  It reports host wall time and tau.
//
//   ./ablation_unit_stride [edge] [threads] [steps]
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "schemes/corals_common.hpp"

int main(int argc, char** argv) {
  using namespace nustencil;
  const Index edge = argc > 1 ? std::atol(argv[1]) : 64;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 8;
  const long steps = argc > 3 ? std::atol(argv[3]) : 12;
  const auto stencil = core::StencilSpec::paper_3d7p();

  Table table("unit-stride decomposition ablation (" + std::to_string(edge) + "^3, " +
              std::to_string(threads) + " threads)");
  table.set_header({"decomposition", "host Gupdates/s", "tau"});

  struct Variant {
    std::string name;
    Coord counts;  // rank 0 = default
  };
  const std::vector<Variant> variants = {
      {"default (y,z only)", Coord{}},
      {"cut x into " + std::to_string(threads), Coord{threads, 1, 1}},
      {"cut x and z", Coord{threads / 2, 1, 2}},
  };
  for (const auto& v : variants) {
    if (v.counts.rank() == 3 && v.counts.product() != threads) continue;
    schemes::RunConfig cfg;
    cfg.num_threads = threads;
    cfg.timesteps = steps;
    schemes::CoralsParams params;
    params.force_counts = v.counts;
    const schemes::CoralsScheme scheme(true, params);
    core::Problem problem(Coord{edge, edge, edge}, stencil);
    const auto run = scheme.run(problem, cfg);
    table.add_row(v.name, {run.gupdates_per_second(), run.details.at("tau")});
  }
  table.print(std::cout);
  std::cout << "\nCutting x shortens the vectorised inner runs (at most " <<
      edge / threads << " doubles per tile, split further at base and wrap "
      "seams, instead of whole " << edge << "-double rows) and multiplies "
      "row-boundary handling; the default decomposition never does it.\n";
  return 0;
}
