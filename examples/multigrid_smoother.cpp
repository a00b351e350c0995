// Multigrid smoother acceleration — the use case the paper names for
// temporal blocking with few iterations: "accelerate multiple smoother
// applications on each level of a multigrid solver".
//
// A weighted-Jacobi smoother (our Eq. (1) stencil) is applied in blocks of
// nu sweeps, as a V-cycle would between restrictions.  The example shows
// (a) that temporal blocking pays off even for small nu, and (b) the
// smoothing behaviour itself: the high-frequency error components die
// within a few sweeps while the smooth components survive — exactly what a
// multigrid smoother must do.
//
//   ./multigrid_smoother [edge] [nu] [visits] [threads] [order]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/redblack.hpp"
#include "schemes/redblack_smoother.hpp"
#include "core/reference.hpp"
#include "schemes/scheme.hpp"

namespace {

using namespace nustencil;

/// Root-mean-square of the difference from the field's mean (the error a
/// multigrid smoother is supposed to attack; the stencil's weights sum to
/// 1, so the mean itself is invariant).
double rms_error(const core::Field& f) {
  double mean = 0.0;
  for (Index i = 0; i < f.volume(); ++i) mean += f.data()[i];
  mean /= static_cast<double>(f.volume());
  double sq = 0.0;
  for (Index i = 0; i < f.volume(); ++i) {
    const double d = f.data()[i] - mean;
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(f.volume()));
}

}  // namespace

int main(int argc, char** argv) try {
  const Index edge = argc > 1 ? std::atol(argv[1]) : 48;
  const long nu = argc > 2 ? std::atol(argv[2]) : 4;
  const long visits = argc > 3 ? std::atol(argv[3]) : 8;
  const int threads = argc > 4 ? std::atoi(argv[4]) : 4;
  const int order = argc > 5 ? std::atoi(argv[5]) : 1;

  // Order s uses an (s+1)-colour Gauss-Seidel sweep; the edge must divide
  // by s+1 for the periodic colouring.
  const core::StencilSpec stencil = order == 1
                                        ? core::StencilSpec::paper_3d7p()
                                        : core::StencilSpec::stable_star(3, order);

  Table table("smoother blocks of nu=" + std::to_string(nu) + " sweeps, " +
              std::to_string(visits) + " level visits, " + std::to_string(edge) +
              "^3");
  table.set_header({"scheme", "Gupdates/s", "rms error after"});

  for (const std::string name : {"NaiveSSE", "nuCORALS", "nuCATS"}) {
    const auto scheme = schemes::make_scheme(name);
    schemes::RunConfig config;
    config.num_threads = threads;
    config.timesteps = nu;  // one smoother block per run, like a V-cycle level
    config.boundary = scheme->default_boundary();

    // Each visit runs one smoother block of nu sweeps on a fresh level
    // field, as a V-cycle would between restrictions (the inter-level
    // transfer itself is outside this example's scope).  Only the
    // schemes' compute time is accumulated, not the first-touch setup.
    core::Problem problem(Coord{edge, edge, edge}, stencil);
    Index updates = 0;
    double seconds = 0.0;
    const auto first = scheme->run(problem, config);
    updates += first.updates;
    seconds += first.seconds;
    for (long v = 1; v < visits; ++v) {
      core::Problem level(Coord{edge, edge, edge}, stencil);
      const auto r = scheme->run(level, config);
      seconds += r.seconds;
      updates += r.updates;
    }
    const double rms = rms_error(problem.buffer(nu));
    table.add_row(name,
                  {static_cast<double>(updates) / seconds * 1e-9, rms});
  }
  // The in-place parallel red-black smoother, same block structure.
  {
    Index updates = 0;
    double seconds = 0.0;
    double rms = 0.0;
    for (long v = 0; v < visits; ++v) {
      core::Field level(Coord{edge, edge, edge});
      const auto r = schemes::run_redblack_smoother(
          level, stencil, nu, threads);
      seconds += r.seconds;
      updates += r.updates;
      if (v == 0) rms = rms_error(level);
    }
    table.add_row("RB-GaussSeidel (in place)",
                  {static_cast<double>(updates) / seconds * 1e-9, rms});
  }
  table.print(std::cout);

  // Show the smoothing factor per sweep: weighted Jacobi (the paper's
  // two-copy testbed) against in-place red-black Gauss-Seidel (the "one
  // copy of X" alternative of Section IV-B, and the canonical multigrid
  // smoother).
  core::Problem demo(Coord{edge, edge, edge}, stencil);
  demo.initialize();
  core::Field rb(Coord{edge, edge, edge});
  for (Index i = 0; i < rb.volume(); ++i) rb.data()[i] = demo.buffer(0).data()[i];

  std::cout << "\nrms error by sweep (Jacobi vs red-black Gauss-Seidel):\n";
  std::cout << "  sweep 0: " << rms_error(demo.buffer(0)) << "  /  "
            << rms_error(rb) << '\n';
  for (long t = 0; t < nu * 2; ++t) {
    core::reference_run(demo, 1);
    // reference_run always starts at time 0; emulate by swapping buffers.
    std::swap(demo.buffer(0), demo.buffer(1));
    core::redblack_run(rb, stencil, 1);
    std::cout << "  sweep " << t + 1 << ": " << rms_error(demo.buffer(0))
              << "  /  " << rms_error(rb) << '\n';
  }
  std::cout << "(the in-place Gauss-Seidel sweep damps the error faster per "
               "sweep and needs half the memory)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
