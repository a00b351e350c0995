#include "schemes/diamond.hpp"

#include <algorithm>
#include <vector>

#include "schemes/run_support.hpp"
#include "thread/spinflag.hpp"

namespace nustencil::schemes {

namespace {

long default_block(Index width, int s, long timesteps) {
  // A static "tuned" temporal tile: deep enough for reuse, bounded by the
  // tile width so the skew stays within one neighbour.
  return std::clamp<long>(width / (2 * s), 1, std::min<long>(32, timesteps));
}

}  // namespace

long diamond_block_height(const Coord& shape, const core::StencilSpec& stencil,
                          int threads, long timesteps) {
  const Index width = shape[shape.rank() - 1] / std::max(1, threads);
  return default_block(width, stencil.order(), timesteps);
}

RunResult DiamondScheme::run(core::Problem& problem, const RunConfig& config) const {
  const int rank = problem.shape().rank();
  NUSTENCIL_CHECK(config.boundary.all_periodic(rank),
                  "Diamond scheme requires periodic boundaries");
  NUSTENCIL_CHECK(config.schedule == sched::Schedule::Static,
                  "PLuTo diamond supports only --schedule=static (its "
                  "wavefront phases have no owner-first decomposition to "
                  "steal from)");
  RunSupport sup(problem, config);
  const int n = config.num_threads;
  const int s = problem.stencil().order();
  const int d = rank - 1;  // highest-stride dimension
  const Index nd = problem.shape()[d];
  NUSTENCIL_CHECK(nd >= 2 * s * n || n == 1,
                  "Diamond scheme: domain too small for this thread count");

  const Index width = nd / n;
  const long h = block_override_ > 0 ? block_override_
                                     : default_block(width, s, config.timesteps);

  sup.serial_init();  // NUMA-ignorant

  core::Box domain;
  domain.lo = Coord::filled(rank, 0);
  domain.hi = problem.shape();

  // One left-skewed parallelogram tile per thread, one task each per
  // block layer; counter = completed layer-relative steps of that tile.
  std::vector<threading::ProgressCounter> progress(static_cast<std::size_t>(n));
  sup.set_tasks(n, [](int i) { return i; });

  Timer timer;
  sup.run_workers([&](int tid) {
    for (long tb = 0; tb < config.timesteps; tb += h) {
      const long hb = std::min<long>(h, config.timesteps - tb);
      sup.set_layer(tb / h);
      const trace::ScopedSpan layer_span(
          sup.recorder(tid), trace::Phase::Layer,
          {static_cast<std::int32_t>(tb / h), static_cast<std::int32_t>(tb),
           static_cast<std::int32_t>(hb)});
      // Tile i's whole layer is one task (the static waits block, so it
      // finishes in its one visit); the counters reset between layers,
      // while every worker waits in the phase barrier.
      sup.run_tasks(
          tid,
          [&](int i, const TaskContext& ctx) {
            const Index lo = nd * i / n, hi = nd * (i + 1) / n;
            const int left = (i + n - 1) % n;
            for (long dt = 0; dt < hb; ++dt) {
              // Left-skewed tile: cells near the left edge read up to 2s
              // into the left neighbour's results of step dt-1.
              if (dt > 0 && n > 1) ctx.ready(progress[static_cast<std::size_t>(left)], dt, left);
              core::Box box = domain;
              box.lo[d] = lo - s * dt;
              box.hi[d] = hi - s * dt;
              ctx.exec().update_box(box, tb + dt, ctx.tid());
              progress[static_cast<std::size_t>(i)].advance_to(dt + 1);
            }
            return sched::StepResult::Done;
          },
          [&] {
            for (auto& c : progress) c.reset();
          });
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(name(), seconds);
  r.details["block_height"] = static_cast<double>(h);
  return r;
}

TrafficEstimate DiamondScheme::estimate_traffic(const topology::MachineSpec& machine,
                                                const Coord& shape,
                                                const core::StencilSpec& stencil, int threads,
                                                long timesteps) const {
  const int s = stencil.order();
  const Index width = shape[shape.rank() - 1] / std::max(1, threads);
  const double h = static_cast<double>(
      block_override_ > 0 ? block_override_ : default_block(width, s, timesteps));
  const double nband = stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;
  TrafficEstimate e;
  const double reload = 2.0 * s * h / static_cast<double>(std::max<Index>(1, width));
  e.mem_doubles_per_update = (2.0 + nband) / h * (1.0 + reload);
  // Static rectangular sweeps reuse higher cache levels less than the
  // cache-oblivious recursion.
  e.llc_doubles_per_update =
      (static_cast<double>(stencil.reads_per_update()) + 1.0) * 0.85;
  (void)machine;
  return e;
}

}  // namespace nustencil::schemes
