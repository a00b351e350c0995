#include "schemes/trapezoid.hpp"

#include <algorithm>

#include "schemes/run_support.hpp"

namespace nustencil::schemes {

namespace {

/// The decomposed (highest-stride) dimension.
int cut_dim(int rank) { return rank - 1; }

/// Time-block height: the expanding phase-B trapezoids over tiles of
/// width W must neither collide nor outrun the shrinking phase-A flanks,
/// which bounds the height by W/(2s).
long block_height(Index width, int s, long timesteps) {
  return std::clamp<long>(width / (2 * s), 1, timesteps);
}

}  // namespace

int trapezoid_tiles(const Coord& shape, const core::StencilSpec& stencil, int threads) {
  const int d = cut_dim(shape.rank());
  return std::max(1, std::min<int>(threads,
                                   static_cast<int>(shape[d] / (4 * stencil.order()))));
}

long trapezoid_block_height(const Coord& shape, const core::StencilSpec& stencil,
                            int threads, long timesteps) {
  const int d = cut_dim(shape.rank());
  const int k = trapezoid_tiles(shape, stencil, threads);
  return block_height(shape[d] / k, stencil.order(), timesteps);
}

RunResult TrapezoidScheme::run(core::Problem& problem, const RunConfig& config) const {
  const int rank = problem.shape().rank();
  NUSTENCIL_CHECK(config.boundary.all_periodic(rank),
                  "Trapezoid scheme requires periodic boundaries");
  RunSupport sup(problem, config);
  const int n = config.num_threads;
  const int s = problem.stencil().order();
  const int d = cut_dim(rank);
  const Index nd = problem.shape()[d];

  // K tiles along the cut dimension; every thread gets one trapezoid per
  // phase (more tiles would only add sync).
  const int k = trapezoid_tiles(problem.shape(), problem.stencil(), n);
  const long h = trapezoid_block_height(problem.shape(), problem.stencil(), n,
                                        config.timesteps);

  sup.serial_init();  // NUMA-ignorant: all pages first-touched by thread 0

  core::Box domain;
  domain.lo = Coord::filled(rank, 0);
  domain.hi = problem.shape();

  // Each trapezoid is one task, task i on thread i % n (the static
  // round-robin; an un-stolen run executes the same trapezoids on the same
  // threads).  Phase A trapezoids are mutually independent, as are phase
  // B ones (they only read phase A results, fenced by the barrier that
  // ends phase A), so tasks never wait.
  sup.set_tasks(k, [n](int i) { return i % n; });

  Timer timer;
  sup.run_workers([&](int tid) {
    trace::ThreadRecorder* rec = sup.recorder(tid);
    long tb = 0, hb = 0;
    // Phase A: shrinking trapezoids [zi + s*dt, zi+1 - s*dt).
    const TaskStep shrinking = [&](int i, const TaskContext& ctx) {
      const Index lo = nd * i / k, hi = nd * (i + 1) / k;
      for (long dt = 0; dt < hb; ++dt) {
        core::Box box = domain;
        box.lo[d] = lo + s * dt;
        box.hi[d] = hi - s * dt;
        if (!box.empty()) ctx.exec().update_box(box, tb + dt, ctx.tid());
      }
      return sched::StepResult::Done;
    };
    // Phase B: expanding trapezoids [bi - s*dt, bi + s*dt) around each
    // tile boundary bi (the ring boundary included).
    const TaskStep expanding = [&](int i, const TaskContext& ctx) {
      const Index b = nd * (i + 1) / k;  // boundary between tile i and i+1
      for (long dt = 1; dt < hb; ++dt) {
        core::Box box = domain;
        box.lo[d] = b - s * dt;
        box.hi[d] = b + s * dt;
        ctx.exec().update_box(box, tb + dt, ctx.tid());
      }
      return sched::StepResult::Done;
    };
    for (; tb < config.timesteps; tb += h) {
      hb = std::min<long>(h, config.timesteps - tb);
      sup.set_layer(tb / h);
      const trace::ScopedSpan layer_span(
          rec, trace::Phase::Layer,
          {static_cast<std::int32_t>(tb / h), static_cast<std::int32_t>(tb),
           static_cast<std::int32_t>(hb)});
      sup.run_tasks(tid, shrinking);
      sup.run_tasks(tid, expanding);
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(name(), seconds);
  r.details["block_height"] = static_cast<double>(h);
  r.details["tiles"] = static_cast<double>(k);
  return r;
}

TrafficEstimate TrapezoidScheme::estimate_traffic(const topology::MachineSpec& machine,
                                                  const Coord& shape,
                                                  const core::StencilSpec& stencil,
                                                  int threads, long timesteps) const {
  const int s = stencil.order();
  const int d = cut_dim(shape.rank());
  const int k = trapezoid_tiles(shape, stencil, threads);
  const Index width = shape[d] / k;
  const double h =
      static_cast<double>(trapezoid_block_height(shape, stencil, threads, timesteps));
  const double nband = stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;
  TrafficEstimate e;
  // Each time block streams every cell once; phase B re-reads the phase-A
  // flanks (a fraction ~2sH/W of the cells).
  const double reload = 2.0 * s * h / static_cast<double>(width);
  e.mem_doubles_per_update = (2.0 + nband) / h * (1.0 + reload);
  e.llc_doubles_per_update =
      (static_cast<double>(stencil.reads_per_update()) + 1.0) * 0.65;
  (void)machine;
  return e;
}

}  // namespace nustencil::schemes
