// CATS / nuCATS correctness: wavefront pipeline vs the reference, with
// dependency checking, banded coefficients, high orders, and multi-chunk
// (timesteps exceeding the wavefront depth) configurations.
#include <gtest/gtest.h>

#include "schemes/cats_common.hpp"
#include "test_util.hpp"

namespace nustencil {
namespace {

using schemes::CatsScheme;
using schemes::RunConfig;

RunConfig cats_config(int threads, long steps) {
  RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = steps;
  cfg.boundary = CatsScheme(true).default_boundary();  // Dirichlet z
  return cfg;
}

TEST(CatsScheme, SingleThread) {
  const CatsScheme scheme(false);
  test::expect_matches_reference(scheme, Coord{16, 12, 14}, core::StencilSpec::paper_3d7p(),
                                 cats_config(1, 5));
}

TEST(CatsScheme, MultiThread) {
  const CatsScheme scheme(false);
  test::expect_matches_reference(scheme, Coord{20, 18, 16}, core::StencilSpec::paper_3d7p(),
                                 cats_config(4, 6));
}

TEST(CatsScheme, DependencyOrder) {
  const CatsScheme scheme(false);
  auto cfg = cats_config(4, 5);
  cfg.check_dependencies = true;
  test::expect_matches_reference(scheme, Coord{14, 12, 12}, core::StencilSpec::paper_3d7p(), cfg);
}

TEST(NuCatsScheme, SingleThread) {
  const CatsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{16, 12, 14}, core::StencilSpec::paper_3d7p(),
                                 cats_config(1, 5));
}

TEST(NuCatsScheme, MultiThread) {
  const CatsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{20, 18, 16}, core::StencilSpec::paper_3d7p(),
                                 cats_config(4, 6));
}

TEST(NuCatsScheme, DependencyOrder) {
  const CatsScheme scheme(true);
  auto cfg = cats_config(4, 5);
  cfg.check_dependencies = true;
  test::expect_matches_reference(scheme, Coord{14, 12, 12}, core::StencilSpec::paper_3d7p(), cfg);
}

TEST(NuCatsScheme, Banded) {
  const CatsScheme scheme(true);
  auto cfg = cats_config(2, 4);
  cfg.check_dependencies = true;
  test::expect_matches_reference(scheme, Coord{12, 10, 12}, core::StencilSpec::banded_star(3, 1),
                                 cfg);
}

TEST(NuCatsScheme, HighOrder) {
  const CatsScheme scheme(true);
  auto cfg = cats_config(2, 3);
  cfg.check_dependencies = true;
  test::expect_matches_reference(scheme, Coord{16, 14, 16}, core::StencilSpec::stable_star(3, 2),
                                 cfg);
}

TEST(NuCatsScheme, HighOrderWithSplitTraversalDimension) {
  // Regression: with z_segments == 2 and order s >= 2, the upper segment
  // reads the lower segment's planes at positions up to p-s-1; the
  // original wait only covered p-2s (found by tests/fuzz_test.cpp).
  const CatsScheme scheme(true);
  auto cfg = cats_config(4, 8);
  cfg.check_dependencies = true;
  test::expect_matches_reference(scheme, Coord{11, 10, 23},
                                 core::StencilSpec::stable_star(3, 2), cfg);
}

TEST(NuCatsScheme, StealWithSplitTraversalDimensionHighOrder) {
  // Regression: a tile walks only the chunk steps whose plane lies inside
  // it.  Before the upper z-segment's first plane, (p - lo)/s is negative
  // and must round down: rounding toward zero (0 for p = lo - 1, s = 2)
  // updated the lower segment's top plane from the upper segment's task.
  const CatsScheme scheme(true);
  auto cfg = cats_config(8, 13);
  cfg.schedule = sched::Schedule::Steal;
  cfg.check_dependencies = true;
  const auto result = test::expect_matches_reference(
      scheme, Coord{64, 16, 32}, core::StencilSpec::stable_star(3, 2), cfg);
  EXPECT_EQ(result.details.at("z_segments"), 2.0);
}

TEST(NuCatsScheme, ManyThreadsSmallDomain) {
  const CatsScheme scheme(true);
  auto cfg = cats_config(8, 4);
  cfg.check_dependencies = true;
  test::expect_matches_reference(scheme, Coord{12, 16, 12}, core::StencilSpec::paper_3d7p(), cfg);
}

TEST(NuCatsScheme, DirichletEverywhere) {
  const CatsScheme scheme(true);
  auto cfg = cats_config(3, 4);
  cfg.boundary = core::Boundary::dirichlet();
  test::expect_matches_reference(scheme, Coord{14, 13, 12}, core::StencilSpec::paper_3d7p(), cfg);
}

TEST(NuCatsScheme, InstrumentedLocality) {
  const CatsScheme scheme(true);
  auto cfg = cats_config(8, 4);
  cfg.instrument = true;
  core::Problem problem(Coord{32, 32, 32}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, cfg);
  EXPECT_GT(result.traffic.locality(), 0.6)
      << "nuCATS assigns tiles to their owning threads; most traffic is local";
}

TEST(CatsScheme, InstrumentedLocalityIsPoor) {
  const CatsScheme scheme(false);
  auto cfg = cats_config(8, 4);
  cfg.instrument = true;
  core::Problem problem(Coord{32, 32, 32}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, cfg);
  // Serial first touch puts every page on node 0; with 8 threads the Xeon
  // topology spans 1 socket only... use more: locality == fraction on own
  // node. With 8 threads all on socket 0 everything is "local" — so this
  // assertion uses 16 threads instead.
  (void)result;
  auto cfg16 = cats_config(16, 4);
  cfg16.instrument = true;
  core::Problem p16(Coord{32, 32, 32}, core::StencilSpec::paper_3d7p());
  const auto r16 = scheme.run(p16, cfg16);
  EXPECT_LT(r16.traffic.locality(), 0.7)
      << "CATS serial init places all pages on node 0";
}

TEST(CatsPlan, TileCountDividesThreadsForNuCats) {
  const auto machine = topology::xeonX7550();
  core::Box box;
  box.lo = Coord{0, 0, 1};
  box.hi = Coord{160, 160, 159};
  const auto st = core::StencilSpec::paper_3d7p();
  for (int threads : {1, 2, 4, 8, 16, 32}) {
    const auto plan = schemes::plan_cats(box, st, machine, threads, 100, true);
    EXPECT_TRUE(plan.num_tiles() % threads == 0 || plan.num_tiles() == threads)
        << "threads=" << threads << " tiles=" << plan.num_tiles();
  }
}

TEST(CatsPlan, ChunkShrinksForBanded) {
  const auto machine = topology::opteron8222();
  core::Box box;
  box.lo = Coord{0, 0, 1};
  box.hi = Coord{200, 200, 199};
  const auto constant = schemes::plan_cats(box, core::StencilSpec::paper_3d7p(), machine, 16,
                                           100, true);
  const auto banded = schemes::plan_cats(box, core::StencilSpec::banded_star(3, 1), machine, 16,
                                         100, true);
  EXPECT_LE(banded.chunk * banded.wy, constant.chunk * constant.wy)
      << "coefficient bands enlarge the wavefront working set";
}

TEST(CatsPlan, StealRefinementKeepsOwnershipAndPlaneFloor) {
  // The stealing plan refines the Static plan's y-tiles by up to 4x, stops
  // before a plane drops below kCatsMinStealPlaneCells, and never moves a
  // row to another thread (the nuCATS first-touch placement).
  const auto machine = topology::xeonX7550();
  struct Case {
    Coord shape;
    long steps;
    bool banded;
    int steal_tiles;
    Index steal_wy;
  };
  for (const Case& c : {Case{Coord{67, 61, 59}, 250, false, 8, 8},
                        Case{Coord{97, 83, 71}, 100, false, 8, 11},
                        Case{Coord{128, 128, 128}, 32, false, 16, 8},
                        Case{Coord{192, 192, 192}, 4, false, 16, 12},
                        // Banded: 12 Static tiles; 4x and 3x would cut
                        // 4- and 5-row planes, so the floor stops at 2x.
                        Case{Coord{192, 192, 192}, 4, true, 24, 8},
                        Case{Coord{256, 256, 256}, 4, false, 16, 16}}) {
    const auto st =
        c.banded ? core::StencilSpec::banded_star(3, 1) : core::StencilSpec::paper_3d7p();
    core::Box box;
    box.lo = Coord{0, 0, 1};
    box.hi = Coord{c.shape[0], c.shape[1], c.shape[2] - 1};
    const auto fixed = schemes::plan_cats(box, st, machine, 4, c.steps, true);
    const auto steal = schemes::plan_cats(box, st, machine, 4, c.steps, true,
                                          sched::Schedule::Steal);
    SCOPED_TRACE(::testing::Message() << c.shape << " / " << c.steps << " steps: "
                                      << fixed.num_tiles() << " -> " << steal.num_tiles()
                                      << " tiles");
    EXPECT_EQ(steal.num_tiles(), c.steal_tiles);
    EXPECT_EQ(steal.wy, c.steal_wy);

    const auto row_owners = [&](const schemes::CatsPlan& plan) {
      std::vector<int> owners(static_cast<std::size_t>(c.shape[1]), -1);
      for (int i = 0; i < plan.num_tiles(); ++i) {
        const core::Box& t = plan.tiles[static_cast<std::size_t>(i)];
        for (Index y = t.lo[1]; y < t.hi[1]; ++y)
          owners[static_cast<std::size_t>(y)] = plan.owner[static_cast<std::size_t>(i)];
      }
      return owners;
    };
    EXPECT_EQ(row_owners(steal), row_owners(fixed));

    if (steal.num_tiles() > fixed.num_tiles()) {
      for (const core::Box& t : steal.tiles)
        EXPECT_GE(t.extent(0) * t.extent(1), schemes::kCatsMinStealPlaneCells);
    }
  }
}

}  // namespace
}  // namespace nustencil
