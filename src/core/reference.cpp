#include "core/reference.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/executor.hpp"

namespace nustencil::core {

void reference_run(Problem& problem, long timesteps, const Boundary& boundary) {
  const Coord& shape = problem.shape();
  const Box interior = updatable_box(shape, problem.stencil(), boundary);
  if (!boundary.all_periodic(shape.rank())) {
    const double* u0 = problem.buffer(0).data();
    double* u1 = problem.buffer(1).data();
    Coord pos = Coord::filled(shape.rank(), 0);
    for (Index i = 0; i < problem.volume(); ++i) {
      bool inside = true;
      for (int d = 0; d < shape.rank(); ++d)
        inside = inside && pos[d] >= interior.lo[d] && pos[d] < interior.hi[d];
      if (!inside) u1[i] = u0[i];
      for (int d = 0; d < shape.rank(); ++d) {
        if (++pos[d] < shape[d]) break;
        pos[d] = 0;
      }
    }
  }
  Executor exec(problem);
  for (long t = 0; t < timesteps; ++t) exec.update_box(interior, t, /*tid=*/0);
}

double max_rel_diff(const Field& a, const Field& b) {
  NUSTENCIL_CHECK(a.volume() == b.volume(), "max_rel_diff: shape mismatch");
  double worst = 0.0;
  for (Index i = 0; i < a.volume(); ++i) {
    const double x = a.data()[i], y = b.data()[i];
    const double denom = std::max({1.0, std::fabs(x), std::fabs(y)});
    worst = std::max(worst, std::fabs(x - y) / denom);
  }
  return worst;
}

}  // namespace nustencil::core
