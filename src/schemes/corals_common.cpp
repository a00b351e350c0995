#include "schemes/corals_common.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/spacetime.hpp"
#include "schemes/decompose.hpp"
#include "schemes/run_support.hpp"
#include "thread/barrier.hpp"
#include "thread/spinflag.hpp"

namespace nustencil::schemes {

namespace {

using core::SkewedInterval;
using core::SpaceTimeTile;

/// Everything one thread tile needs within a layer.  Built by the owning
/// thread in the layer's build phase, read by neighbours during execution
/// (a barrier separates the phases).
///
/// Synchronisation granularity is (base, time step): progress[k] holds
/// 1 + the last layer-relative time step whose local part of base k is
/// complete.  Whole-base flags would deadlock for narrow thread tiles
/// (a single base can span the entire tile width, closing a wait cycle
/// around the periodic ring); per-time-step progress always waits on a
/// strictly earlier time, so waits ground out at the layer start — this is
/// the paper's "the lower part of each intersecting base parallelogram
/// must be computed first" at its natural granularity.
struct TileState {
  std::array<SkewedInterval, 3> clip{};  ///< thread parallelogram, slope +s
  std::vector<SpaceTimeTile> bases;      ///< execution order
  std::unique_ptr<threading::ProgressCounter[]> progress;
  std::size_t progress_size = 0;
};

/// Interval of the thread parallelogram of `tile` in dimension `d` at
/// layer-relative time dt.
Index clip_lo(const TileState& ts, int d, Index dt) {
  return ts.clip[static_cast<std::size_t>(d)].lo_at(dt);
}
Index clip_hi(const TileState& ts, int d, Index dt) {
  return ts.clip[static_cast<std::size_t>(d)].hi_at(dt);
}

/// Spatial box of the thread parallelogram at layer-relative time dt.
core::Box clip_box(const TileState& ts, int rank, Index dt) {
  core::Box b;
  b.lo = Coord::filled(rank, 0);
  b.hi = Coord::filled(rank, 0);
  for (int d = 0; d < rank; ++d) {
    b.lo[d] = clip_lo(ts, d, dt);
    b.hi[d] = clip_hi(ts, d, dt);
  }
  return b;
}

/// Waits until the tile `nb` has completed, through time u, every base
/// whose local part overlaps the producer region R (given per dimension in
/// `nb`'s own virtual frame — the caller applies periodic wrap shifts).
/// `nb_tile` only labels the recorded spin-wait spans with the producer.
void wait_on_region(const core::Box& region, Index u, int rank, const TileState& nb,
                    const threading::AbortToken& abort,
                    trace::ThreadRecorder* rec, int nb_tile) {
  for (std::size_t k = 0; k < nb.bases.size(); ++k) {
    const SpaceTimeTile& nbase = nb.bases[k];
    if (u < nbase.t0 || u >= nbase.t1) continue;
    if (nb.progress[k].current() >= u + 1) continue;  // already far enough
    const core::Box nbox = nbase.box_at(u);
    bool overlap = true;
    for (int e = 0; e < rank && overlap; ++e) {
      const Index lo = std::max({nbox.lo[e], clip_lo(nb, e, u), region.lo[e]});
      const Index hi = std::min({nbox.hi[e], clip_hi(nb, e, u), region.hi[e]});
      overlap = lo < hi;
    }
    if (overlap) nb.progress[k].wait_for(u + 1, &abort, rec, nb_tile);
  }
}

/// Non-blocking variant of wait_on_region: true when tile `nb` has
/// already completed, through time u, every base whose local part
/// overlaps the producer region.  Probes the same progress counters the
/// blocking wait spins on, so a stealing scheduler can test readiness
/// without wedging a thief.
bool region_ready(const core::Box& region, Index u, int rank, const TileState& nb) {
  for (std::size_t k = 0; k < nb.bases.size(); ++k) {
    const SpaceTimeTile& nbase = nb.bases[k];
    if (u < nbase.t0 || u >= nbase.t1) continue;
    if (nb.progress[k].current() >= u + 1) continue;  // already far enough
    const core::Box nbox = nbase.box_at(u);
    bool overlap = true;
    for (int e = 0; e < rank && overlap; ++e) {
      const Index lo = std::max({nbox.lo[e], clip_lo(nb, e, u), region.lo[e]});
      const Index hi = std::min({nbox.hi[e], clip_hi(nb, e, u), region.hi[e]});
      overlap = lo < hi;
    }
    if (overlap) return false;
  }
  return true;
}

/// Enumerates the producer regions of `base` of tile `my_tc` at time
/// step t and invokes fn(shifted_region, u, nb, nb_tile) for each; fn
/// returning false stops the enumeration (and makes this return false).
///
/// Inputs that cross the right window boundary in a decomposed dimension d
/// form the producer region
///   R_d = [clip_hi(u), cell_hi - 1 + s],  R_e = consumer cells at t,
/// at time u = t-1.  Because every window skews right by s per step, R may
/// extend past the d-neighbour's window in any other decomposed dimension
/// e (the top-s "overhang") — those points belong to the *diagonal*
/// neighbour, so all offset combinations {d:+1} x {e: 0 or +1} must be
/// visited, each with its periodic wrap shift.
template <typename Fn>
bool for_each_right_producer(const std::vector<TileState>& states, const TileState& mine,
                             const Coord& my_tc, const Coord& counts, const Coord& shape,
                             const SpaceTimeTile& base, Index t, int rank, int s,
                             Fn&& fn) {
  if (t < 1) return true;  // time-0 inputs come from the previous layer
  const Index u = t - 1;
  const core::Box bb = base.box_at(t);

  // Consumer cells this thread computes from `base` at time t.
  core::Box cells;
  cells.lo = Coord::filled(rank, 0);
  cells.hi = Coord::filled(rank, 0);
  for (int e = 0; e < rank; ++e) {
    cells.lo[e] = std::max(bb.lo[e], clip_lo(mine, e, t));
    cells.hi[e] = std::min(bb.hi[e], clip_hi(mine, e, t));
    if (cells.lo[e] >= cells.hi[e]) return true;
  }

  for (int d = 0; d < rank; ++d) {
    if (counts[d] <= 1) continue;
    const Index in_lo = clip_hi(mine, d, u);
    const Index in_hi = cells.hi[d] + s;  // reads reach s beyond the cells
    if (in_hi <= in_lo) continue;         // nothing crosses this boundary

    // Producer region in my frame.
    core::Box region = cells;
    region.lo[d] = in_lo;
    region.hi[d] = in_hi;

    // Enumerate neighbour offsets: +1 in d, and 0/+1 in every other
    // decomposed dimension (the diagonal overhang).
    std::array<int, 3> other{};
    int num_other = 0;
    for (int e = 0; e < rank; ++e)
      if (e != d && counts[e] > 1) other[static_cast<std::size_t>(num_other++)] = e;

    for (int mask = 0; mask < (1 << num_other); ++mask) {
      Coord nb_tc = my_tc;
      nb_tc[d] = (my_tc[d] + 1) % counts[d];
      core::Box shifted = region;
      if (nb_tc[d] == 0) {  // periodic wrap in d
        shifted.lo[d] -= shape[d];
        shifted.hi[d] -= shape[d];
      }
      for (int bit = 0; bit < num_other; ++bit) {
        if (!(mask & (1 << bit))) continue;
        const int e = other[static_cast<std::size_t>(bit)];
        nb_tc[e] = (my_tc[e] + 1) % counts[e];
        if (nb_tc[e] == 0) {
          shifted.lo[e] -= shape[e];
          shifted.hi[e] -= shape[e];
        }
      }
      const int nb_tile = tile_index(counts, nb_tc);
      const TileState& nb = states[static_cast<std::size_t>(nb_tile)];
      if (&nb == &mine) continue;
      if (!fn(shifted, u, nb, nb_tile)) return false;
    }
  }
  return true;
}

/// Local synchronisation for `base` of tile `my_tc` at time step t (see
/// for_each_right_producer for the geometry).
void wait_on_right_neighbors(const std::vector<TileState>& states, const TileState& mine,
                             const Coord& my_tc, const Coord& counts, const Coord& shape,
                             const SpaceTimeTile& base, Index t, int rank, int s,
                             const threading::AbortToken& abort,
                             trace::ThreadRecorder* rec) {
  for_each_right_producer(states, mine, my_tc, counts, shape, base, t, rank, s,
                          [&](const core::Box& region, Index u, const TileState& nb,
                              int nb_tile) {
                            wait_on_region(region, u, rank, nb, abort, rec, nb_tile);
                            return true;
                          });
}

/// True when every producer of `base` at time t has progressed far
/// enough that the local part can be computed without waiting.
bool right_neighbors_ready(const std::vector<TileState>& states, const TileState& mine,
                           const Coord& my_tc, const Coord& counts, const Coord& shape,
                           const SpaceTimeTile& base, Index t, int rank, int s) {
  return for_each_right_producer(
      states, mine, my_tc, counts, shape, base, t, rank, s,
      [&](const core::Box& region, Index u, const TileState& nb, int /*nb_tile*/) {
        return region_ready(region, u, rank, nb);
      });
}

}  // namespace

CoralsLayout plan_corals(const Coord& shape, int threads, int s,
                         const CoralsParams& params) {
  const int rank = shape.rank();
  CoralsLayout l;
  // Phase I: spatial decomposition into one tile per thread.
  core::Box domain;
  domain.lo = Coord::filled(rank, 0);
  domain.hi = shape;
  l.counts = decompose_counts(shape, threads);
  if (params.force_counts.rank() == rank) {
    NUSTENCIL_CHECK(params.force_counts.product() == threads,
                    "CoralsParams::force_counts must multiply to the thread count");
    l.counts = params.force_counts;
  }
  l.tiles = decompose_domain(domain, l.counts);

  // Phase II: temporal tiling.  b = smallest decomposed tile extent.
  for (int d = 0; d < rank; ++d) {
    if (l.counts[d] <= 1) continue;
    for (const auto& tile : l.tiles)
      l.b = l.b == 0 ? tile.extent(d) : std::min(l.b, tile.extent(d));
  }
  if (l.b == 0) l.b = l.tiles[0].hi.min();  // single tile: smallest extent
  NUSTENCIL_CHECK(l.b >= 2 * s, "CORALS: thread tiles must be at least 2s wide");
  l.tau = params.tau_override > 0 ? params.tau_override : std::max<long>(1, l.b / (2 * s));
  return l;
}

core::BaseSizes corals_base_sizes(const CoralsParams& params) {
  core::BaseSizes sizes;
  if (params.base_space > 0) sizes.space[1] = sizes.space[2] = params.base_space;
  if (params.base_time > 0) sizes.time = params.base_time;
  return sizes;
}

CoralsLayer corals_layer(const core::Box& tile, const Coord& counts, const Coord& shape,
                         int s, long tau_act) {
  CoralsLayer l;
  l.root.t0 = 0;
  l.root.t1 = tau_act;
  l.root.rank = shape.rank();
  for (int d = 0; d < shape.rank(); ++d) {
    const auto i = static_cast<std::size_t>(d);
    const bool decomposed = counts[d] > 1;
    const Index lo = decomposed ? tile.lo[d] : 0;
    const Index hi = decomposed ? tile.hi[d] : shape[d];
    // An undecomposed x is the whole ring left unskewed: it has no
    // neighbour to skew against, rows never wrap mid-row, and the
    // recursion never cuts a slope-0 dimension, so rows stay whole.
    const int k = d == 0 && !decomposed ? 0 : s;
    l.clip[i] = SkewedInterval{lo, hi, k, k};
    l.root.dims[i] = SkewedInterval{lo, hi + 2 * k * (tau_act - 1), -k, -k};
  }
  return l;
}

RunResult run_corals_like(core::Problem& problem, const RunConfig& config,
                          const CoralsParams& params) {
  const int rank = problem.shape().rank();
  NUSTENCIL_CHECK(config.boundary.all_periodic(rank),
                  "CORALS/nuCORALS require periodic boundaries (thread "
                  "parallelograms wrap around, Section III-A)");
  RunSupport sup(problem, config);
  const int n = config.num_threads;
  const int s = problem.stencil().order();
  const Coord& shape = problem.shape();

  const CoralsLayout layout = plan_corals(shape, n, s, params);
  const Coord& counts = layout.counts;
  const std::vector<core::Box>& tiles = layout.tiles;

  // The owner map: tile -> thread.  nuCORALS keeps the allocating thread
  // (owner_shift 0); the CORALS rendition shifts it to model affinity-blind
  // assignment.
  auto owner_of = [&](int tile) { return (tile + params.owner_shift) % n; };
  // allocator_of: the thread that first-touches tile `i` is always thread
  // i, so the data-to-core affinity holds only when owner_shift == 0.

  if (params.numa_init) {
    sup.run_workers([&](int tid) {
      sup.executor(tid).first_touch_box(tiles[static_cast<std::size_t>(tid)],
                                        sup.node_of_thread(tid), config.seed);
    });
  } else {
    sup.serial_init();
  }

  const long tau = layout.tau;
  const core::BaseSizes base_sizes = corals_base_sizes(params);

  std::vector<TileState> states(static_cast<std::size_t>(n));
  threading::Barrier barrier(n);

  // Stealing state: a (base, time) cursor per tile plus each tile's
  // coordinate for the producer enumeration.  A task advances through its
  // bases in the same order the static path uses, probing the neighbour
  // progress counters non-blockingly and re-enqueueing itself when a
  // producer is behind.
  const bool stealing = config.schedule != sched::Schedule::Static;
  struct TileCursor {
    std::size_t j = 0;
    Index t = 0;
  };
  std::vector<TileCursor> cursors(static_cast<std::size_t>(n));
  std::vector<Coord> tile_coords;
  for (int i = 0; i < n; ++i) tile_coords.push_back(tile_coord(counts, i));
  sched::TaskPool* pool = stealing ? sup.pool() : nullptr;

  Timer timer;
  sup.run_workers([&](int tid) {
    core::Executor& exec = sup.executor(tid);
    trace::ThreadRecorder* rec = sup.recorder(tid);
    // The static path records its own per-step tile spans below (they
    // include the box/clip geometry between kernel calls, which is
    // significant for cache-sized bases); suppress the executor's inner
    // span so the time is not counted twice.  The stealing path executes
    // through the pool and keeps the executor's spans instead.
    if (!stealing) exec.set_trace(nullptr);
    const int my_tile = [&] {
      for (int i = 0; i < n; ++i)
        if (owner_of(i) == tid) return i;
      return tid;
    }();
    TileState& mine = states[static_cast<std::size_t>(my_tile)];
    const core::Box& tile = tiles[static_cast<std::size_t>(my_tile)];

    for (long tb = 0; tb < config.timesteps; tb += tau) {
      const long tau_act = std::min<long>(tau, config.timesteps - tb);
      sup.set_layer(tb / tau);
      const trace::ScopedSpan layer_span(
          rec, trace::Phase::Layer,
          {static_cast<std::int32_t>(tb / tau), static_cast<std::int32_t>(tb),
           static_cast<std::int32_t>(tau_act), my_tile});

      {
        // Build phase: thread parallelogram (clip) + root + bases + flags.
        // Recorded as an init leaf — for deep layers the recursive base
        // decomposition and flag allocation are a visible setup cost.
        const trace::ScopedSpan build_span(
            rec, trace::Phase::Init,
            {static_cast<std::int32_t>(tb / tau), -1, -1, my_tile});
        const CoralsLayer layer = corals_layer(tile, counts, shape, s, tau_act);
        mine.clip = layer.clip;
        mine.bases.clear();
        core::decompose_parallelogram(layer.root, base_sizes, mine.bases);
        if (mine.progress_size < mine.bases.size()) {
          mine.progress =
              std::make_unique<threading::ProgressCounter[]>(mine.bases.size());
          mine.progress_size = mine.bases.size();
        }
        for (std::size_t k = 0; k < mine.progress_size; ++k) mine.progress[k].reset();
      }
      if (stealing && tid == 0) {
        for (auto& c : cursors) c = TileCursor{};
        pool->reset(n, owner_of);
      }
      barrier.arrive_and_wait(&sup.abort(), rec);

      if (stealing) {
        pool->run(
            tid,
            [&](int i, int wtid, bool stolen) {
              TileState& ts = states[static_cast<std::size_t>(i)];
              TileCursor& cur = cursors[static_cast<std::size_t>(i)];
              core::Executor& ex = sup.executor(wtid);
              bool advanced = false;
              while (cur.j < ts.bases.size()) {
                const SpaceTimeTile& base = ts.bases[cur.j];
                if (cur.t < base.t0) cur.t = base.t0;
                while (cur.t < base.t1) {
                  if (!right_neighbors_ready(states, ts,
                                             tile_coords[static_cast<std::size_t>(i)],
                                             counts, shape, base, cur.t, rank, s))
                    return advanced ? sched::StepResult::Yield
                                    : sched::StepResult::Blocked;
                  const core::Box box =
                      intersect(base.box_at(cur.t), clip_box(ts, rank, cur.t));
                  if (!box.empty()) {
                    const Index before = ex.updates_done();
                    ex.update_box(box, tb + cur.t, wtid);
                    if (stolen)
                      pool->add_stolen_updates(wtid, ex.updates_done() - before);
                  }
                  ts.progress[cur.j].advance_to(cur.t + 1);
                  ++cur.t;
                  advanced = true;
                }
                ++cur.j;
                cur.t = 0;
              }
              return sched::StepResult::Done;
            },
            &sup.abort(), rec);
        barrier.arrive_and_wait(&sup.abort(), rec);
        continue;
      }

      // Execution phase.  Tile spans chain end-to-start (one clock read
      // per step) so the inter-step bookkeeping — neighbour progress scan,
      // box/clip geometry, flag advance — is accounted as compute; spin
      // waits nest inside the step span and their time is excluded from
      // the tile total so the leaf phases still partition thread time.
      const Coord my_tc = tile_coord(counts, my_tile);
      std::int64_t t_prev = rec ? rec->now_ns() : 0;
      // Chained spans bypass ScopedSpan, so they sample the per-span
      // counters by hand: a snapshot at every chain point turns the
      // cumulative counters into per-step deltas, preserving the
      // deltas-sum-to-totals invariant on this path too.
      const bool sampling = rec && rec->sampler();
      trace::CounterSet prev_counters;
      if (sampling) rec->sample(prev_counters);
      for (std::size_t j = 0; j < mine.bases.size(); ++j) {
        const SpaceTimeTile& base = mine.bases[j];
        const trace::ScopedSpan base_span(
            rec, trace::Phase::Parallelogram,
            {static_cast<std::int32_t>(j), static_cast<std::int32_t>(tb / tau),
             -1, my_tile});
        // Compute the local clip of the base one time step at a time,
        // synchronising with the right neighbours (local synchronisation)
        // at every step whose inputs cross a thread boundary.
        for (Index t = base.t0; t < base.t1; ++t) {
          const std::int64_t spin_before =
              rec ? rec->total_ns(trace::Phase::SpinWait) : 0;
          wait_on_right_neighbors(states, mine, my_tc, counts, shape, base, t, rank, s,
                                  sup.abort(), rec);
          const core::Box box = intersect(base.box_at(t), clip_box(mine, rank, t));
          if (!box.empty()) exec.update_box(box, tb + t, tid);
          mine.progress[j].advance_to(t + 1);
          if (rec) {
            const std::int64_t end = rec->now_ns();
            const trace::SpanArgs args{
                static_cast<std::int32_t>(box.lo[0]),
                rank >= 2 ? static_cast<std::int32_t>(box.lo[1]) : -1,
                rank >= 3 ? static_cast<std::int32_t>(box.lo[2]) : -1, tid};
            const std::int64_t spun =
                rec->total_ns(trace::Phase::SpinWait) - spin_before;
            if (sampling) {
              trace::CounterSet now;
              rec->sample(now);
              const trace::CounterSet delta = now.delta_since(prev_counters);
              rec->record(trace::Phase::Tile, t_prev, end, args, 0, spun, &delta);
              prev_counters = now;
            } else {
              rec->record(trace::Phase::Tile, t_prev, end, args, 0, spun);
            }
            t_prev = end;
          }
        }
      }
      barrier.arrive_and_wait(&sup.abort(), rec);
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(params.name, seconds);
  r.details["tau"] = static_cast<double>(tau);
  r.details["b"] = static_cast<double>(layout.b);
  r.details["bases_per_layer"] =
      states.empty() ? 0.0 : static_cast<double>(states[0].bases.size());
  return r;
}

TrafficEstimate estimate_corals_traffic(const topology::MachineSpec& machine,
                                        const Coord& shape,
                                        const core::StencilSpec& stencil, int threads,
                                        long timesteps) {
  const int s = stencil.order();
  const Coord counts = decompose_counts(shape, threads);
  Index b = 0;
  for (int d = 0; d < shape.rank(); ++d) {
    if (counts[d] <= 1) continue;
    const Index extent = shape[d] / counts[d];
    b = b == 0 ? extent : std::min(b, extent);
  }
  if (b == 0) b = shape.min();
  const double tau = std::min<double>(std::max<long>(1, b / (2 * s)),
                                      static_cast<double>(timesteps));
  const double nband = stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;
  const double cell_bytes = (2.0 + nband) * 8.0;

  // Per-thread working set vs the last-level cache share of one thread.
  // With few threads a thread enjoys (up to) a whole shared LLC instance.
  const auto& llc = machine.last_level_cache();
  const int sharers =
      std::min(std::min(threads, machine.cores_per_socket), llc.shared_by_cores);
  const double llc_share =
      static_cast<double>(llc.size_bytes) / static_cast<double>(std::max(1, sharers));
  const double tile_bytes =
      static_cast<double>(shape.product()) / threads * cell_bytes;

  // Temporal reuse depth from memory: the whole layer when the thread tile
  // is LLC-resident, otherwise each band of the (time-cut-first) recursion
  // re-streams the tile, limiting reuse to the band height.
  const double band_height = 8.0;  // BaseSizes default time
  const double tau_eff =
      tile_bytes <= 0.5 * llc_share ? tau : std::min(tau, band_height);

  double surface = 0.0;
  for (int d = 0; d < shape.rank(); ++d)
    if (counts[d] > 1)
      surface += static_cast<double>(s) * tau /
                 (2.0 * static_cast<double>(shape[d] / counts[d]));
  // Working set of one base parallelogram (~32x8x8 cells, all arrays) vs
  // the capacity of the cache levels above the LLC.
  const double base_ws = 32.0 * 8.0 * 8.0 * cell_bytes;
  double above_bytes = 0.0;
  for (std::size_t lvl = 0; lvl + 1 < machine.caches.size(); ++lvl)
    above_bytes += static_cast<double>(machine.caches[lvl].size_bytes);
  const double shield = std::clamp(above_bytes / (4.0 * base_ws), 0.0, 1.0);

  TrafficEstimate e;
  e.mem_doubles_per_update = (2.0 + nband) / tau_eff * (1.0 + surface);
  // Associativity conflict leak of the 2 + nband streaming arrays.  The
  // recursive blocking shields the streams only when the caches above the
  // LLC can hold a base parallelogram several times over: on the Xeon
  // (256 KiB L2) nuCORALS leaks a third of the wavefront's rate and wins
  // the banded case clearly; on the Opteron (64 KiB L1 only) both schemes
  // leak alike and end up tied (Section IV-E).
  const double leak = std::max(0.005, 0.03 - 0.04 * shield);
  e.mem_doubles_per_update +=
      leak * (2.0 + nband) * (static_cast<double>(stencil.reads_per_update()) + 1.0);

  // LLC traffic: base parallelograms (~32x8x8) are served largely from the
  // caches *above* the LLC when those are big enough; on huge per-thread
  // tiles the recursion's surface re-reads push the LLC traffic beyond the
  // zero-caching minimum.  Both effects calibrated against Figs. 6-9.
  const double reuse_above = 0.45 * shield;
  const double growth =
      std::clamp(1.4 * std::log(std::max(1.0, tile_bytes / (8.0 * llc_share))) /
                     std::log(8.0),
                 0.0, 0.85);  // saturates: 500^3/32 and weak 635^3/32 perform alike
  const double beta = (1.0 - reuse_above) + growth;
  e.llc_doubles_per_update =
      (static_cast<double>(stencil.reads_per_update()) + 1.0) * beta;
  return e;
}

}  // namespace nustencil::schemes
