// Shared helpers for scheme correctness tests: run a scheme and the
// reference executor on identical problems and compare the results.
#pragma once

#include <gtest/gtest.h>

#include "core/reference.hpp"
#include "schemes/scheme.hpp"

namespace nustencil::test {

/// Runs `scheme` and the reference on identical problems; expects bitwise
/// agreement: Jacobi updates are order-independent, and every kernel these
/// tests run computes each cell with the same FP operations as the
/// reference, so any nonzero difference is a bug.
inline schemes::RunResult expect_matches_reference(const schemes::Scheme& scheme,
                                                   Coord shape,
                                                   const core::StencilSpec& stencil,
                                                   const schemes::RunConfig& config) {
  core::Problem actual(shape, stencil);
  const schemes::RunResult result = scheme.run(actual, config);

  core::Problem expected(shape, stencil);
  expected.initialize(config.seed);
  core::reference_run(expected, config.timesteps, config.boundary);

  const double diff = core::max_rel_diff(actual.buffer(config.timesteps),
                                         expected.buffer(config.timesteps));
  EXPECT_EQ(diff, 0.0) << scheme.name() << " diverged from the reference";
  return result;
}

}  // namespace nustencil::test
