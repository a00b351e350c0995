// Shared helpers for scheme correctness tests: run a scheme and the
// reference executor on identical problems and compare the results.
#pragma once

#include <gtest/gtest.h>

#include "core/executor.hpp"
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
  if (!config.boundary.all_periodic(shape.rank())) {
    // Freeze Dirichlet boundary: copy into the second buffer, then only
    // update the interior.
    const core::Box interior = core::updatable_box(shape, stencil, config.boundary);
    double* u0 = expected.buffer(0).data();
    double* u1 = expected.buffer(1).data();
    Coord pos = Coord::filled(shape.rank(), 0);
    for (Index i = 0; i < expected.volume(); ++i) {
      bool inside = true;
      for (int d = 0; d < shape.rank(); ++d)
        inside = inside && pos[d] >= interior.lo[d] && pos[d] < interior.hi[d];
      if (!inside) u1[i] = u0[i];
      for (int d = 0; d < shape.rank(); ++d) {
        if (++pos[d] < shape[d]) break;
        pos[d] = 0;
      }
    }
    core::Executor exec(expected);
    for (long t = 0; t < config.timesteps; ++t) exec.update_box(interior, t, 0);
  } else {
    core::reference_run(expected, config.timesteps);
  }

  const double diff = core::max_rel_diff(actual.buffer(config.timesteps),
                                         expected.buffer(config.timesteps));
  EXPECT_EQ(diff, 0.0) << scheme.name() << " diverged from the reference";
  return result;
}

}  // namespace nustencil::test
