// Trapezoid (Pochoir stand-in) and Diamond (PLuTo stand-in) correctness,
// plus the scheme factory.
#include <gtest/gtest.h>

#include <cctype>

#include "common/args.hpp"
#include "schemes/diamond.hpp"
#include "schemes/scheme.hpp"
#include "schemes/trapezoid.hpp"
#include "test_util.hpp"

namespace nustencil {
namespace {

using schemes::DiamondScheme;
using schemes::RunConfig;
using schemes::TrapezoidScheme;

RunConfig periodic_config(int threads, long steps, bool check = true) {
  RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = steps;
  cfg.check_dependencies = check;
  return cfg;
}

TEST(TrapezoidScheme, SingleThread) {
  TrapezoidScheme scheme;
  test::expect_matches_reference(scheme, Coord{14, 12, 16}, core::StencilSpec::paper_3d7p(),
                                 periodic_config(1, 5));
}

TEST(TrapezoidScheme, MultiThread) {
  TrapezoidScheme scheme;
  test::expect_matches_reference(scheme, Coord{16, 14, 24}, core::StencilSpec::paper_3d7p(),
                                 periodic_config(4, 7));
}

TEST(TrapezoidScheme, HighOrder) {
  TrapezoidScheme scheme;
  test::expect_matches_reference(scheme, Coord{18, 16, 32}, core::StencilSpec::stable_star(3, 2),
                                 periodic_config(2, 5));
}

TEST(TrapezoidScheme, Banded) {
  TrapezoidScheme scheme;
  test::expect_matches_reference(scheme, Coord{12, 10, 20}, core::StencilSpec::banded_star(3, 1),
                                 periodic_config(2, 6));
}

TEST(TrapezoidScheme, TwoDimensional) {
  TrapezoidScheme scheme;
  test::expect_matches_reference(scheme, Coord{24, 20}, core::StencilSpec::stable_star(2, 1),
                                 periodic_config(3, 5));
}

TEST(DiamondScheme, SingleThread) {
  DiamondScheme scheme;
  test::expect_matches_reference(scheme, Coord{14, 12, 16}, core::StencilSpec::paper_3d7p(),
                                 periodic_config(1, 5));
}

TEST(DiamondScheme, MultiThread) {
  DiamondScheme scheme;
  test::expect_matches_reference(scheme, Coord{16, 14, 24}, core::StencilSpec::paper_3d7p(),
                                 periodic_config(4, 7));
}

TEST(DiamondScheme, ManySteps) {
  DiamondScheme scheme;
  test::expect_matches_reference(scheme, Coord{12, 12, 16}, core::StencilSpec::paper_3d7p(),
                                 periodic_config(4, 19));
}

TEST(DiamondScheme, HighOrder) {
  DiamondScheme scheme;
  test::expect_matches_reference(scheme, Coord{18, 16, 24}, core::StencilSpec::stable_star(3, 2),
                                 periodic_config(2, 4));
}

TEST(DiamondScheme, BlockOverride) {
  for (long block : {1L, 3L, 8L}) {
    DiamondScheme scheme(block);
    test::expect_matches_reference(scheme, Coord{12, 10, 16}, core::StencilSpec::paper_3d7p(),
                                   periodic_config(2, 6));
  }
}

TEST(DiamondScheme, LocalityPoorAcrossSockets) {
  DiamondScheme scheme;
  RunConfig cfg = periodic_config(16, 6, /*check=*/false);
  cfg.instrument = true;
  core::Problem problem(Coord{32, 32, 64}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, cfg);
  EXPECT_LT(result.traffic.locality(), 0.7);
}

TEST(SchemeFactory, CreatesAllNamedSchemes) {
  for (const auto& name : schemes::scheme_names()) {
    auto scheme = schemes::make_scheme(name);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), name);
    // Any spelling names the same scheme, e.g. --scheme=nucats.
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    EXPECT_EQ(schemes::make_scheme(lowercase(name))->name(), name);
    EXPECT_EQ(schemes::make_scheme(upper)->name(), name);
  }
  EXPECT_THROW(schemes::make_scheme("nope"), Error);
}

TEST(SchemeFactory, NumaAwarenessFlags) {
  EXPECT_TRUE(schemes::make_scheme("nuCATS")->numa_aware());
  EXPECT_TRUE(schemes::make_scheme("nuCORALS")->numa_aware());
  EXPECT_TRUE(schemes::make_scheme("nuMWD")->numa_aware());
  EXPECT_TRUE(schemes::make_scheme("NaiveSSE")->numa_aware());
  EXPECT_FALSE(schemes::make_scheme("CATS")->numa_aware());
  EXPECT_FALSE(schemes::make_scheme("CORALS")->numa_aware());
  EXPECT_FALSE(schemes::make_scheme("MWD")->numa_aware());
  EXPECT_FALSE(schemes::make_scheme("Pochoir")->numa_aware());
  EXPECT_FALSE(schemes::make_scheme("PLuTo")->numa_aware());
}

}  // namespace
}  // namespace nustencil
