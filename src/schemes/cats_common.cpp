#include "schemes/cats_common.hpp"

#include <algorithm>

#include "schemes/run_support.hpp"

namespace nustencil::schemes {

namespace {

/// Bytes one cell occupies in the moving wavefront: both value buffers
/// plus, for banded stencils, every coefficient band.
double wavefront_doubles_per_cell(const core::StencilSpec& st) {
  return 2.0 + (st.banded() ? static_cast<double>(st.npoints()) : 0.0);
}

/// Tile width along y whose wavefront fits the per-core last-level cache
/// share for chunk depth Tc (>=1; may exceed Ny, callers clamp).
Index fitting_width(const core::Box& updatable, const core::StencilSpec& st,
                    const topology::MachineSpec& machine, long tc) {
  const auto& llc = machine.last_level_cache();
  const double share = static_cast<double>(llc.size_bytes) /
                       static_cast<double>(llc.shared_by_cores);
  const double usable = 0.5 * share;  // safety factor against conflict misses
  const double nx = static_cast<double>(updatable.extent(0));
  const double s = st.order();
  const double planes = static_cast<double>(tc) * s + 2.0 * s + 2.0;
  const double bytes_per_y =
      nx * planes * 8.0 * wavefront_doubles_per_cell(st) / 2.0;
  return std::max<Index>(1, static_cast<Index>(usable / bytes_per_y));
}

}  // namespace

CatsPlan plan_cats(const core::Box& updatable, const core::StencilSpec& stencil,
                   const topology::MachineSpec& machine, int threads, long timesteps,
                   bool numa_aware, sched::Schedule schedule) {
  NUSTENCIL_CHECK(updatable.rank() == 3, "CATS/nuCATS support 3D domains");
  const Index ny = updatable.extent(1);
  const Index min_wy = std::max<Index>(2 * stencil.order(), 2);

  // Deepest chunk whose wavefront cross-section is still at least min_wy
  // wide (the paper runs the full 100 steps in one pass when it fits).
  CatsPlan plan;
  plan.chunk = std::max<long>(1, timesteps);
  while (plan.chunk > 1 && fitting_width(updatable, stencil, machine, plan.chunk) < min_wy)
    plan.chunk = plan.chunk / 2;
  plan.wy = std::min<Index>(ny, fitting_width(updatable, stencil, machine, plan.chunk));
  plan.wy = std::max(plan.wy, min_wy);

  const int max_tiles = std::max(1, static_cast<int>(ny / min_wy));
  int tiles = static_cast<int>(ceil_div(ny, plan.wy));
  tiles = std::clamp(tiles, 1, max_tiles);
  // Parallelisation requirement: at least one tile per thread when the
  // domain allows it (CATS round-robins them, nuCATS adjusts below).
  if (tiles < threads) tiles = std::min(max_tiles, threads);

  if (numa_aware) {
    // Section II: make the tile count a multiple of (or equal to) the
    // thread count so that the subdomain <-> tile matching is regular.
    if (tiles >= threads) {
      while (tiles % threads != 0 && tiles < max_tiles) ++tiles;
      if (tiles % threads != 0)
        tiles = std::max(threads, max_tiles / threads * threads);
      if (tiles > max_tiles) tiles = std::min(max_tiles, threads);
    }
    if (tiles < threads) {
      if (max_tiles >= threads) {
        tiles = threads;  // reduce the wavefront until one tile per thread
      } else if (threads % 2 == 0 && max_tiles >= threads / 2) {
        // Reducing the wavefront further than the cache heuristic allows:
        // stop at nthreads/2 tiles and double the tile count by cutting
        // the wavefront-traversal dimension in half instead.
        tiles = threads / 2;
        plan.z_segments = 2;
      } else {
        tiles = max_tiles;  // more threads than usable tiles; oversubscribe
      }
    }
  }
  if (schedule != sched::Schedule::Static && plan.z_segments == 1) {
    // Stealing wants more tiles than threads so a lagging owner has
    // something to give away.  Refine by an integer multiplier: tile
    // boundaries at ny*t/tiles scale exactly (ny * (m*t) / (m*tiles) ==
    // ny*t/tiles), so every thread's owned y-range stays identical to the
    // unrefined plan and only the granularity available to thieves
    // changes.  4x is enough granularity; the multiplier shrinks while the
    // narrowest refined plane would fall below the per-call floor.
    int m = 4;
    while (m > 1 && (tiles * m > max_tiles ||
                     updatable.extent(0) * (ny / (tiles * m)) < kCatsMinStealPlaneCells))
      --m;
    tiles *= m;
  }
  plan.tiles_y = tiles;
  plan.wy = ceil_div(ny, tiles);

  for (int zs = 0; zs < plan.z_segments; ++zs) {
    for (int ty = 0; ty < plan.tiles_y; ++ty) {
      core::Box b = updatable;
      b.lo[1] = updatable.lo[1] + ny * ty / tiles;
      b.hi[1] = updatable.lo[1] + ny * (ty + 1) / tiles;
      const Index nz = updatable.extent(2);
      b.lo[2] = updatable.lo[2] + nz * zs / plan.z_segments;
      b.hi[2] = updatable.lo[2] + nz * (zs + 1) / plan.z_segments;
      plan.tiles.push_back(b);
    }
  }

  plan.owner.resize(static_cast<std::size_t>(plan.num_tiles()));
  for (int i = 0; i < plan.num_tiles(); ++i) {
    if (!numa_aware) {
      plan.owner[static_cast<std::size_t>(i)] = i % threads;  // CATS round-robin
    } else if (plan.z_segments == 2) {
      plan.owner[static_cast<std::size_t>(i)] = i;  // one tile per thread
    } else {
      // Contiguous blocks of tiles per thread: the thread whose subdomain
      // contains (most of) the tile owns it.
      const int ty = i % plan.tiles_y;
      plan.owner[static_cast<std::size_t>(i)] =
          static_cast<int>(static_cast<long>(ty) * threads / plan.tiles_y);
    }
  }
  return plan;
}

RunResult CatsScheme::run(core::Problem& problem, const RunConfig& config) const {
  NUSTENCIL_CHECK(problem.shape().rank() == 3, "CATS/nuCATS support 3D domains");
  NUSTENCIL_CHECK(config.boundary[2] == core::BoundaryKind::Dirichlet,
                  "CATS/nuCATS require a Dirichlet boundary in the wavefront "
                  "traversal dimension (z); time skewing along a periodic axis "
                  "has a cyclic dependence seam");
  RunSupport sup(problem, config);
  const int n = config.num_threads;
  const core::Box updatable =
      core::updatable_box(problem.shape(), problem.stencil(), config.boundary);
  const CatsPlan plan = plan_cats(updatable, problem.stencil(), sup.machine(), n,
                                  config.timesteps, numa_aware_, config.schedule);
  const int ntiles = plan.num_tiles();
  const int s = problem.stencil().order();

  // Initialisation: nuCATS threads first-touch their own tiles (plus any
  // left-over rows outside the updatable box go to their nearest owner);
  // CATS initialises serially on node 0.
  if (numa_aware_) {
    sup.run_workers([&](int tid) {
      for (int i = 0; i < ntiles; ++i) {
        if (plan.owner[static_cast<std::size_t>(i)] != tid) continue;
        core::Box mine = plan.tiles[static_cast<std::size_t>(i)];
        // Extend boundary tiles to cover the frozen Dirichlet rim so that
        // every page is touched by its nearest owner.
        for (int d = 0; d < 3; ++d) {
          if (mine.lo[d] == updatable.lo[d]) mine.lo[d] = 0;
          if (mine.hi[d] == updatable.hi[d]) mine.hi[d] = problem.shape()[d];
        }
        sup.executor(tid).first_touch_box(mine, sup.node_of_thread(tid), config.seed);
      }
    });
  } else {
    sup.serial_init();
  }
  sup.finalize_boundary();

  // One progress counter per tile, holding the codes `advance` publishes.
  std::vector<threading::ProgressCounter> progress(static_cast<std::size_t>(ntiles));
  const Index zlo = updatable.lo[2], zhi = updatable.hi[2];
  const long tc_max = plan.chunk;
  const bool z_split = plan.z_segments == 2;
  const auto owner_of = [&](int tile) { return plan.owner[static_cast<std::size_t>(tile)]; };

  // Where tile i stands: sweep position p and the next chunk step k to
  // run there (k > 0 only after a stealing probe failed mid-position).
  struct TileCursor {
    Index p = 0;
    long k = 0;
  };
  std::vector<TileCursor> cursors(static_cast<std::size_t>(ntiles), TileCursor{zlo, 0});
  sup.set_tasks(ntiles, owner_of);
  // Between chunks, while every worker waits in the phase barrier.
  const auto next_chunk = [&] {
    for (auto& c : cursors) c = TileCursor{zlo, 0};
    for (auto& c : progress) c.reset();
  };

  Timer timer;
  sup.run_workers([&](int tid) {
    trace::ThreadRecorder* rec = sup.recorder(tid);
    long tb = 0, tc = 0;
    Index p_end = 0;  // exclusive

    // The task step: advances tile i through its cursor's position of the
    // chunk [tb, tb + tc).  Only the steps k whose plane z = p - k*s lies
    // inside the tile are visited, and their waits are checked; a position
    // with no such step (the sweep's ramp-up and drain, the upper
    // z-segment's first positions) only publishes its code.  A wait that
    // does not hold (stealing probes only) leaves cur.k at the step to
    // resume from.  Under the static schedule a thread's tiles advance one
    // position per visit in turn, so every tile of the thread has finished
    // position p-1 before any reaches p: waits on same-owner tiles hold on
    // arrival, and the z-split pair never shares an owner.
    //
    // Codes published: p_rel * Tc_max + Tc_max once the position is done
    // (what the y-neighbours and the upper z-segment read) and, in a
    // z-split plan only, p_rel * Tc_max + k + 1 after each step k (what the
    // lower z-segment reads).  Steps without a plane count as done.
    const TaskStep advance = [&](int i, const TaskContext& ctx) {
      const core::Box& tile = plan.tiles[static_cast<std::size_t>(i)];
      threading::ProgressCounter& own = progress[static_cast<std::size_t>(i)];
      TileCursor& cur = cursors[static_cast<std::size_t>(i)];
      const auto ready = [&](int j, long need) {
        return ctx.ready(progress[static_cast<std::size_t>(j)], need, owner_of(j));
      };
      const Index p = cur.p;
      const long code_base = (p - zlo) * tc_max;
      // z = p - k*s in [lo, hi)  <=>  (p - hi + 1)/s <= k <= (p - lo)/s,
      // rounded inward with floor division: p - lo is negative before the
      // upper z-segment's first position, and truncation toward zero would
      // turn k <= -1/2 into k <= 0 and update the plane below the tile.
      const auto floor_div = [&](Index a) { return a >= 0 ? a / s : -((-a + s - 1) / s); };
      const long k_first = std::max<long>(cur.k, -floor_div(tile.hi[2] - 1 - p));
      const long k_last = std::min<long>(tc - 1, floor_div(p - tile.lo[2]));
      if (k_first <= k_last) {
        const int ty = i % plan.tiles_y;
        const int zs = i / plan.tiles_y;
        // y-neighbours (periodic ring) must have finished position p-s.
        if (p - s >= zlo && plan.tiles_y > 1) {
          const long need = (p - s - zlo + 1) * tc_max;
          const int left = zs * plan.tiles_y + (ty + plan.tiles_y - 1) % plan.tiles_y;
          const int right = zs * plan.tiles_y + (ty + 1) % plan.tiles_y;
          if (!ready(left, need) || !ready(right, need)) return sched::StepResult::Blocked;
        }
        const int other = (1 - zs) * plan.tiles_y + ty;
        // The upper segment's plane at (p, k) reads the lower segment's
        // planes z-j (j = 1..s) of step k-1, which were updated at
        // positions p-s-j — so the lower segment must have completed every
        // position through p-s-1.  (For s = 1 this is the familiar p-2s
        // bound; for higher orders p-2s alone is insufficient.)
        if (z_split && zs == 1 && p - s - 1 >= zlo &&
            !ready(other, (p - s - zlo) * tc_max))
          return sched::StepResult::Blocked;
        if (z_split) own.advance_to(code_base + k_first);
        for (long k = k_first; k <= k_last; ++k) {
          // Lower segment's top planes read the upper segment's previous
          // time level at the same position.
          if (z_split && zs == 0 && k > 0 && !ready(other, code_base + k)) {
            cur.k = k;
            return k > k_first ? sched::StepResult::Progress : sched::StepResult::Blocked;
          }
          core::Box box = tile;
          box.lo[2] = p - k * s;
          box.hi[2] = box.lo[2] + 1;
          ctx.exec().update_box(box, tb + k, ctx.tid());
          if (z_split) own.advance_to(code_base + k + 1);
        }
      }
      // Publish full-position completion even when the final chunk is
      // shorter than tc_max (the position-level waits above target
      // (p' + 1) * tc_max and would otherwise never be satisfied).
      own.advance_to(code_base + tc_max);
      cur = TileCursor{p + 1, 0};
      return cur.p < p_end ? sched::StepResult::Progress : sched::StepResult::Done;
    };

    for (; tb < config.timesteps; tb += tc_max) {
      tc = std::min<long>(tc_max, config.timesteps - tb);
      p_end = zhi + (tc - 1) * s;
      sup.set_layer(tb / tc_max);
      const trace::ScopedSpan layer_span(
          rec, trace::Phase::Layer,
          {static_cast<std::int32_t>(tb / tc_max), static_cast<std::int32_t>(tb),
           static_cast<std::int32_t>(tc)});
      sup.run_tasks(tid, advance, next_chunk);
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(name(), seconds);
  r.details["chunk"] = static_cast<double>(plan.chunk);
  r.details["tile_width_y"] = static_cast<double>(plan.wy);
  r.details["tiles"] = static_cast<double>(ntiles);
  r.details["z_segments"] = static_cast<double>(plan.z_segments);
  return r;
}

TrafficEstimate CatsScheme::estimate_traffic(const topology::MachineSpec& machine,
                                             const Coord& shape,
                                             const core::StencilSpec& stencil, int threads,
                                             long timesteps) const {
  const CatsPlan plan = plan_cats(core::updatable_box(shape, stencil, default_boundary()),
                                  stencil, machine, threads, timesteps, /*numa_aware=*/true);

  const double s = stencil.order();
  const double tc = static_cast<double>(plan.chunk);
  const double nband = stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;
  // Per chunk pass every cell is read and written once from memory, and
  // the bands are streamed once; tile boundaries reload a halo of width s
  // from each y-neighbour per position.
  const double halo = 2.0 * s / static_cast<double>(plan.wy);
  TrafficEstimate e;
  e.mem_doubles_per_update = (2.0 + nband) / tc * (1.0 + halo) + 2.0 * halo / tc;
  // Associativity conflict leak: the wavefront interleaves 2 + nband
  // streaming arrays, and cross-interference grows roughly quadratically
  // with the stream count.  This is what pulls the banded nuCATS down
  // towards SysBandIC (Section IV-E) while leaving the constant case
  // cache-bound.
  e.mem_doubles_per_update += 0.05 * (2.0 + nband) * (2.0 + nband);
  // The moving wavefront spans ~Tc*s planes; as that approaches the depth
  // of the traversal dimension, ramp-up/drain and conflict pressure reduce
  // the effective cache bandwidth (calibrated against Figs. 6-9: nuCATS
  // tracks LL1Band0C on deep domains and falls off on shallow ones).
  const double depth = static_cast<double>(shape[2]);
  const double skew = 1.0 + 0.5 * tc * s / depth;
  e.llc_doubles_per_update =
      (static_cast<double>(stencil.reads_per_update()) + 1.0) * skew;
  (void)machine;
  return e;
}

}  // namespace nustencil::schemes
