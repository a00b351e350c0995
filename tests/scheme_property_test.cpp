// Cross-scheme property sweep: every scheme, on a grid of (shape, order,
// threads, steps, stencil kind) configurations, must reproduce the
// reference exactly and update every cell exactly `steps` times.
#include <gtest/gtest.h>

#include "schemes/scheme.hpp"
#include "test_util.hpp"

namespace nustencil {
namespace {

struct Config {
  std::string scheme;
  Coord shape;
  int order;
  bool banded;
  int threads;
  long steps;

  friend std::ostream& operator<<(std::ostream& os, const Config& c) {
    return os << c.scheme << " " << c.shape << " s=" << c.order
              << (c.banded ? " banded" : "") << " n=" << c.threads << " T=" << c.steps;
  }
};

class SchemeProperty : public ::testing::TestWithParam<Config> {};

TEST_P(SchemeProperty, MatchesReferenceWithDependencyChecking) {
  const Config& c = GetParam();
  const auto scheme = schemes::make_scheme(c.scheme);
  schemes::RunConfig cfg;
  cfg.num_threads = c.threads;
  cfg.timesteps = c.steps;
  cfg.check_dependencies = true;
  cfg.boundary = scheme->default_boundary();
  const core::StencilSpec st = c.banded
                                   ? core::StencilSpec::banded_star(c.shape.rank(), c.order)
                                   : core::StencilSpec::stable_star(c.shape.rank(), c.order);
  const auto result = test::expect_matches_reference(*scheme, c.shape, st, cfg);
  EXPECT_EQ(result.updates, [&] {
    if (cfg.boundary.all_periodic(c.shape.rank())) return c.shape.product() * c.steps;
    // Dirichlet z: only the interior of the wavefront dimension updates.
    Coord interior = c.shape;
    interior[2] -= 2 * c.order;
    return interior.product() * c.steps;
  }());
}

std::vector<Config> make_configs() {
  std::vector<Config> configs;
  // Every scheme on the canonical small 3D problem with several thread
  // counts, including oversubscription-ish counts and primes.
  for (const auto& scheme : schemes::scheme_names()) {
    for (int threads : {1, 2, 3, 5, 8}) {
      configs.push_back({scheme, Coord{18, 14, 16}, 1, false, threads, 6});
    }
    configs.push_back({scheme, Coord{16, 12, 12}, 1, true, 4, 5});   // banded
    configs.push_back({scheme, Coord{24, 20, 20}, 2, false, 2, 4});  // order 2
  }
  // Deep runs (many layers/chunks) for the temporal blockers.
  for (const std::string scheme : {"nuCORALS", "nuCATS", "CATS", "CORALS", "nuMWD", "MWD"}) {
    configs.push_back({scheme, Coord{14, 12, 14}, 1, false, 4, 23});
  }
  // Order 3 on the main contributions.
  for (const std::string scheme : {"nuCORALS", "nuCATS", "nuMWD"}) {
    configs.push_back({scheme, Coord{26, 22, 22}, 3, false, 2, 3});
  }
  // Rows far wider than a base: the CORALS family keeps x whole.
  for (const std::string scheme : {"nuCORALS", "CORALS"}) {
    configs.push_back({scheme, Coord{70, 20, 18}, 1, false, 4, 17});
  }
  configs.push_back({"nuCORALS", Coord{97, 23, 19}, 2, false, 3, 7});
  configs.push_back({"nuCORALS", Coord{81, 30, 26}, 3, false, 2, 5});
  configs.push_back({"nuCORALS", Coord{66, 18, 14}, 1, true, 3, 9});
  // Non-cubic, prime-ish shapes.
  for (const std::string scheme : {"nuCORALS", "NaiveSSE", "Pochoir", "PLuTo", "nuMWD"}) {
    configs.push_back({scheme, Coord{31, 9, 23}, 1, false, 3, 5});
  }
  return configs;
}

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  std::string name = c.scheme + "_" + std::to_string(c.shape[0]) + "x" +
                     std::to_string(c.shape[1]) + "x" + std::to_string(c.shape[2]) +
                     "_s" + std::to_string(c.order) + (c.banded ? "_banded" : "") +
                     "_n" + std::to_string(c.threads) + "_T" + std::to_string(c.steps);
  for (char& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeProperty, ::testing::ValuesIn(make_configs()),
                         config_name);

}  // namespace
}  // namespace nustencil
