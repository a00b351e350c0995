// CORALS / nuCORALS correctness: the bidirectional tiling engine against
// the reference, with dependency-order validation, multiple layers, high
// orders, banded coefficients, 1D/2D/3D domains and awkward (prime) sizes.
#include <gtest/gtest.h>

#include "schemes/corals.hpp"
#include "schemes/nucorals.hpp"
#include "test_util.hpp"

namespace nustencil {
namespace {

using schemes::CoralsScheme;
using schemes::NuCoralsScheme;
using schemes::RunConfig;

RunConfig corals_config(int threads, long steps, bool check = true) {
  RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = steps;
  cfg.check_dependencies = check;
  return cfg;
}

TEST(NuCoralsScheme, SingleThread3D) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{16, 12, 14}, core::StencilSpec::paper_3d7p(),
                                 corals_config(1, 5));
}

TEST(NuCoralsScheme, TwoThreads3D) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{16, 14, 12}, core::StencilSpec::paper_3d7p(),
                                 corals_config(2, 6));
}

TEST(NuCoralsScheme, FourThreads3D) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{18, 16, 14}, core::StencilSpec::paper_3d7p(),
                                 corals_config(4, 7));
}

TEST(NuCoralsScheme, EightThreads3D) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{16, 16, 16}, core::StencilSpec::paper_3d7p(),
                                 corals_config(8, 5));
}

TEST(NuCoralsScheme, PrimeSizes) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{17, 13, 11}, core::StencilSpec::paper_3d7p(),
                                 corals_config(3, 5));
}

TEST(NuCoralsScheme, MultipleLayers) {
  NuCoralsScheme scheme;
  // tau = b/(2s) is small here, so many layers with barriers in between.
  test::expect_matches_reference(scheme, Coord{14, 12, 12}, core::StencilSpec::paper_3d7p(),
                                 corals_config(4, 17));
}

TEST(NuCoralsScheme, HighOrder2) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{20, 18, 16}, core::StencilSpec::stable_star(3, 2),
                                 corals_config(2, 4));
}

TEST(NuCoralsScheme, HighOrder3) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{24, 22, 20}, core::StencilSpec::stable_star(3, 3),
                                 corals_config(2, 3));
}

TEST(NuCoralsScheme, Banded) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{14, 12, 10}, core::StencilSpec::banded_star(3, 1),
                                 corals_config(2, 5));
}

TEST(NuCoralsScheme, TwoDimensional) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{24, 18}, core::StencilSpec::stable_star(2, 1),
                                 corals_config(3, 6));
}

TEST(NuCoralsScheme, OneDimensional) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{64}, core::StencilSpec::stable_star(1, 1),
                                 corals_config(4, 6));
}

// Wide rows: x far exceeds a base, so these exercise the whole-row bases
// (x is never decomposed, never skewed and never cut).  The 3D sweeps of
// this path live in scheme_property_test.
TEST(NuCoralsScheme, WideRowsTwoDimensional) {
  NuCoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{200, 40}, core::StencilSpec::stable_star(2, 1),
                                 corals_config(3, 13));
}

TEST(NuCoralsScheme, WideRowsSteal) {
  NuCoralsScheme scheme;
  RunConfig cfg = corals_config(4, 17);
  cfg.schedule = sched::Schedule::Steal;
  test::expect_matches_reference(scheme, Coord{70, 20, 18}, core::StencilSpec::paper_3d7p(),
                                 cfg);
}

TEST(NuCoralsScheme, RowsStayWhole) {
  // Each (y, z, t) row is one kernel call, exactly as in the naive sweep.
  // With the rotated AVX2 kernel that call is the whole periodic row, so
  // no cell takes the scalar wrap path.
  struct Counts {
    std::uint64_t rows = 0, slow_cells = 0;
    Index updates = 0;
  };
  const auto kernel_counts = [](const std::string& name) {
    metrics::Registry registry(4);
    RunConfig cfg = corals_config(4, 4, /*check=*/false);
    cfg.metrics = &registry;
    core::Problem problem(Coord{64, 16, 16}, core::StencilSpec::paper_3d7p());
    Counts c;
    c.updates = schemes::make_scheme(name)->run(problem, cfg).updates;
    for (const auto& [counter, value] : registry.snapshot().counters) {
      if (counter.rfind("kernel/rows/", 0) == 0) c.rows += value;
      if (counter == "kernel/slow_cells") c.slow_cells += value;
    }
    return c;
  };
  const Counts naive = kernel_counts("NaiveSSE");
  EXPECT_EQ(naive.rows, 16u * 16u * 4u);
  const Counts corals = kernel_counts("nuCORALS");
  EXPECT_EQ(corals.rows, naive.rows);
  if (core::kernel_isa_supported(core::KernelIsa::AVX2)) {
    EXPECT_EQ(corals.slow_cells, 0u);
    // Fast cells (updates - slow cells, as the perf ledger counts them)
    // are every update of the 64x16x16 domain over 4 steps.
    EXPECT_EQ(static_cast<std::uint64_t>(corals.updates) - corals.slow_cells,
              64u * 16u * 16u * 4u);
  }
}

TEST(NuCoralsScheme, TauOverride) {
  for (long tau : {1L, 2L, 5L}) {
    NuCoralsScheme scheme(tau);
    test::expect_matches_reference(scheme, Coord{14, 12, 12}, core::StencilSpec::paper_3d7p(),
                                   corals_config(2, 6));
  }
}

TEST(NuCoralsScheme, InstrumentedLocalityMatchesPaperTarget) {
  NuCoralsScheme scheme;
  RunConfig cfg = corals_config(8, 12, /*check=*/false);
  cfg.instrument = true;
  core::Problem problem(Coord{48, 48, 48}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, cfg);
  // Section III-C: with tau = b/2, about 75% of the processed data is
  // thread-local. Page granularity and halos blur this; expect >= 60%.
  EXPECT_GT(result.traffic.locality(), 0.60);
  EXPECT_GT(result.details.at("tau"), 0.0);
}

TEST(CoralsScheme, MatchesReference) {
  CoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{16, 14, 12}, core::StencilSpec::paper_3d7p(),
                                 corals_config(4, 6));
}

TEST(CoralsScheme, MatchesReferenceManyThreads) {
  CoralsScheme scheme;
  test::expect_matches_reference(scheme, Coord{16, 16, 16}, core::StencilSpec::paper_3d7p(),
                                 corals_config(8, 5));
}

TEST(CoralsScheme, LocalityIsPoorAcrossSockets) {
  CoralsScheme scheme;
  RunConfig cfg = corals_config(16, 8, /*check=*/false);
  cfg.instrument = true;
  core::Problem problem(Coord{32, 32, 32}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, cfg);
  // Serial init: all pages on node 0, threads on 2 sockets.
  EXPECT_LT(result.traffic.locality(), 0.7);
}

TEST(NuCoralsScheme, UpdateCountExact) {
  NuCoralsScheme scheme;
  core::Problem problem(Coord{12, 12, 12}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, corals_config(4, 9));
  EXPECT_EQ(result.updates, 12 * 12 * 12 * 9);
}

}  // namespace
}  // namespace nustencil
