#include "schemes/corals_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// One time band of a tile's bases.  Time is cut first, so the bases of a
/// band are contiguous in execution order and share [t0, t1) and their
/// slopes: a base's box at step u is its t0 box shifted by slope * (u - t0).
/// A bucket grid over the t0 boxes, with the smallest base extent as the
/// bucket size in each dimension, finds the bases overlapping a query box
/// in a few tests instead of one test per base of the band.
struct Band {
  Index t0 = 0;
  Index t1 = 0;
  std::size_t first = 0;  ///< the band's first base in the tile
  long pair0 = 0;  ///< (base, step) pairs of the tile that precede the band
  std::array<int, 3> slope{};
  std::array<Index, 3> origin{};
  std::array<Index, 3> bucket{1, 1, 1};
  std::array<Index, 3> buckets{1, 1, 1};
  /// Per bucket (x fastest), the bases whose t0 box touches it, ascending.
  std::vector<std::vector<std::uint32_t>> cells;
};

/// Everything one thread tile needs within a layer.  The geometry (clip,
/// bases, bands) depends only on the layer height, so it is rebuilt only
/// when the height changes: the owner builds it in the layer's build
/// phase and neighbours read it during execution (a barrier separates the
/// phases).
///
/// Synchronisation granularity is (base, time step).  A tile runs its
/// (base, step) pairs in one fixed order — bases in recursion order, each
/// from its first step to its last — under every schedule, so one
/// counter, the number of pairs done, tells every consumer which pairs
/// are complete.  Whole-base flags would deadlock for
/// narrow thread tiles (a single base can span the entire tile width,
/// closing a wait cycle around the periodic ring); per-step progress
/// always waits on a strictly earlier time, so waits ground out at the
/// layer start — this is the paper's "the lower part of each intersecting
/// base parallelogram must be computed first" at its natural granularity.
struct TileState {
  std::array<SkewedInterval, 3> clip{};  ///< thread parallelogram, slope +s
  std::vector<SpaceTimeTile> bases;      ///< execution order
  std::vector<Band> bands;
  long height = 0;                  ///< layer height of the geometry
  threading::ProgressCounter done;  ///< (base, step) pairs completed this layer
  /// What each pair waits for; built after the build barrier by whoever
  /// runs the tile first and read only by whoever runs the tile.
  CoralsNeedTable needs;
  long needs_height = 0;
  /// Where the tile's run stands this layer: the next base, its next
  /// step, and the (base, step) pairs done.  Single-writer like `done`:
  /// the task lives in one deque or one executing thread at a time.
  std::size_t next_base = 0;
  Index next_t = 0;
  std::size_t pairs = 0;
  /// Where the last step's tile-span chain ended (-1: start afresh) and
  /// the counter snapshot taken there.
  std::int64_t chain_ns = -1;
  trace::CounterSet chain_counters;
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

/// Calls fn(cell) for every bucket of `band` in the inclusive bucket
/// ranges [lo, hi].
template <typename Fn>
void for_each_bucket(const Band& band, const std::array<Index, 3>& lo,
                     const std::array<Index, 3>& hi, Fn&& fn) {
  for (Index z = lo[2]; z <= hi[2]; ++z)
    for (Index y = lo[1]; y <= hi[1]; ++y)
      for (Index x = lo[0]; x <= hi[0]; ++x)
        fn(static_cast<std::size_t>((z * band.buckets[1] + y) * band.buckets[0] + x));
}

/// Builds the clip, the bases and their band grids of thread tile `tile`
/// for a layer of `tau_act` steps.
void build_geometry(TileState& ts, const core::Box& tile, const Coord& counts,
                    const Coord& shape, int s, long tau_act,
                    const core::BaseSizes& sizes) {
  const int rank = shape.rank();
  const CoralsLayer layer = corals_layer(tile, counts, shape, s, tau_act);
  ts.clip = layer.clip;
  ts.bases.clear();
  core::decompose_parallelogram(layer.root, sizes, ts.bases);
  ts.bands.clear();
  ts.height = tau_act;

  long pairs = 0;
  for (std::size_t k = 0; k < ts.bases.size();) {
    Band band;
    band.t0 = ts.bases[k].t0;
    band.t1 = ts.bases[k].t1;
    band.first = k;
    band.pair0 = pairs;
    while (k < ts.bases.size() && ts.bases[k].t0 == band.t0) ++k;
    const std::size_t last = k;
    pairs += static_cast<long>(last - band.first) * (band.t1 - band.t0);

    for (int e = 0; e < rank; ++e) {
      const auto i = static_cast<std::size_t>(e);
      const SkewedInterval& head = ts.bases[band.first].dims[i];
      Index lo = head.lo, hi = head.hi, smallest = head.hi - head.lo;
      for (std::size_t j = band.first; j < last; ++j) {
        const SkewedInterval& iv = ts.bases[j].dims[i];
        lo = std::min(lo, iv.lo);
        hi = std::max(hi, iv.hi);
        smallest = std::min(smallest, iv.hi - iv.lo);
      }
      band.slope[i] = head.slope_lo;
      band.origin[i] = lo;
      band.bucket[i] = smallest;
      band.buckets[i] = (hi - lo + smallest - 1) / smallest;
    }
    band.cells.resize(
        static_cast<std::size_t>(band.buckets[0] * band.buckets[1] * band.buckets[2]));
    for (std::size_t j = band.first; j < last; ++j) {
      std::array<Index, 3> lo{}, hi{};
      for (int e = 0; e < rank; ++e) {
        const auto i = static_cast<std::size_t>(e);
        const SkewedInterval& iv = ts.bases[j].dims[i];
        lo[i] = (iv.lo - band.origin[i]) / band.bucket[i];
        hi[i] = (iv.hi - 1 - band.origin[i]) / band.bucket[i];
      }
      for_each_bucket(band, lo, hi, [&](std::size_t c) {
        band.cells[c].push_back(static_cast<std::uint32_t>(j));
      });
    }
    ts.bands.push_back(std::move(band));
  }
}

/// The number of (base, step) pairs tile `nb` must have completed before
/// the producer region R (given per dimension in `nb`'s own virtual frame
/// — the caller applies periodic wrap shifts) is final at step u: one past
/// the last pair (k, u) whose local part overlaps R, or 0 when none does.
long region_need(const TileState& nb, const core::Box& region, Index u, int rank) {
  const auto band = std::find_if(nb.bands.begin(), nb.bands.end(),
                                 [&](const Band& b) { return u < b.t1; });
  NUSTENCIL_DCHECK(band != nb.bands.end() && u >= band->t0, "step outside the layer");
  const Index dt = u - band->t0;

  // The query box in the band's t0 frame, and the buckets it touches.
  std::array<Index, 3> qlo{}, qhi{}, blo{}, bhi{};
  for (int e = 0; e < rank; ++e) {
    const auto i = static_cast<std::size_t>(e);
    const Index shift = static_cast<Index>(band->slope[i]) * dt;
    qlo[i] = std::max(clip_lo(nb, e, u), region.lo[e]) - shift;
    qhi[i] = std::min(clip_hi(nb, e, u), region.hi[e]) - shift;
    const Index end = band->origin[i] + band->buckets[i] * band->bucket[i];
    if (qlo[i] >= qhi[i] || qhi[i] <= band->origin[i] || qlo[i] >= end) return 0;
    blo[i] = (std::max(qlo[i], band->origin[i]) - band->origin[i]) / band->bucket[i];
    bhi[i] = (std::min(qhi[i], end) - 1 - band->origin[i]) / band->bucket[i];
  }

  // Only the latest overlapping base matters: its pair at u comes last.
  long best = -1;
  for_each_bucket(*band, blo, bhi, [&](std::size_t c) {
    const std::vector<std::uint32_t>& bucket = band->cells[c];
    for (auto it = bucket.rbegin(); it != bucket.rend(); ++it) {
      const std::uint32_t k = *it;
      if (static_cast<long>(k) <= best) return;
      bool overlap = true;
      for (int e = 0; e < rank && overlap; ++e) {
        const SkewedInterval& iv = nb.bases[k].dims[static_cast<std::size_t>(e)];
        overlap = iv.lo < qhi[static_cast<std::size_t>(e)] &&
                  qlo[static_cast<std::size_t>(e)] < iv.hi;
      }
      if (overlap) {
        best = static_cast<long>(k);
        return;
      }
    }
  });
  if (best < 0) return 0;
  return band->pair0 +
         (best - static_cast<long>(band->first)) * (band->t1 - band->t0) + dt + 1;
}

/// Enumerates the producer regions of `base` of tile `my_tc` at time
/// step t and invokes fn(shifted_region, u, nb, nb_tile) for each.
///
/// The cells C the tile computes from `base` at t read, at u = t-1, their
/// star neighbourhood.  In a decomposed dimension d the inputs beyond the
/// right window boundary hi_d(u) are
///   the d-axis taps:  d in [hi_d(u), C_hi_d + s),  every other e in C_e;
///   the e-axis taps of the cells beyond the boundary themselves (the
///   window moved right by s since u):
///                     d in [hi_d(u), C_hi_d),  e in [C_lo_e - s, C_hi_e + s).
/// Because every window skews right by s per step, a region may extend
/// past the d-neighbour's window in any other skewed dimension e (the
/// "overhang") — those points belong to the *diagonal* neighbour, or for
/// an undecomposed ring to the d-neighbour one period on, so all offset
/// combinations {d:+1} x {e: 0 or +1} are visited, each with its periodic
/// wrap shift.  An unskewed x ring needs no e-axis region: bases span it.
template <typename Fn>
void for_each_right_producer(const std::vector<TileState>& states, const TileState& mine,
                             const Coord& my_tc, const Coord& counts, const Coord& shape,
                             const SpaceTimeTile& base, Index t, int rank, int s,
                             Fn&& fn) {
  if (t < 1) return;  // time-0 inputs come from the previous layer
  const Index u = t - 1;
  const core::Box bb = base.box_at(t);

  // Consumer cells this thread computes from `base` at time t.
  core::Box cells;
  cells.lo = Coord::filled(rank, 0);
  cells.hi = Coord::filled(rank, 0);
  for (int e = 0; e < rank; ++e) {
    cells.lo[e] = std::max(bb.lo[e], clip_lo(mine, e, t));
    cells.hi[e] = std::min(bb.hi[e], clip_hi(mine, e, t));
    if (cells.lo[e] >= cells.hi[e]) return;
  }

  // Skewed dimensions: the ones a region can overhang.
  std::array<int, 3> skewed{};
  int num_skewed = 0;
  for (int e = 0; e < rank; ++e)
    if (mine.clip[static_cast<std::size_t>(e)].slope_lo != 0)
      skewed[static_cast<std::size_t>(num_skewed++)] = e;

  for (int d = 0; d < rank; ++d) {
    if (counts[d] <= 1) continue;
    const Index in_lo = clip_hi(mine, d, u);
    if (cells.hi[d] + s <= in_lo) continue;  // nothing crosses this boundary

    // Producer regions in my frame.
    std::array<core::Box, 3> regions;
    int num_regions = 0;
    core::Box along = cells;
    along.lo[d] = in_lo;
    along.hi[d] = cells.hi[d] + s;
    regions[static_cast<std::size_t>(num_regions++)] = along;
    if (cells.hi[d] > in_lo) {
      for (int i = 0; i < num_skewed; ++i) {
        const int e = skewed[static_cast<std::size_t>(i)];
        if (e == d) continue;
        core::Box across = cells;
        across.lo[d] = in_lo;
        across.lo[e] -= s;
        across.hi[e] += s;
        regions[static_cast<std::size_t>(num_regions++)] = across;
      }
    }

    // Neighbour offsets: +1 in d, and 0/+1 in every other skewed
    // dimension (the overhang).
    std::array<int, 3> other{};
    int num_other = 0;
    for (int i = 0; i < num_skewed; ++i)
      if (skewed[static_cast<std::size_t>(i)] != d)
        other[static_cast<std::size_t>(num_other++)] = skewed[static_cast<std::size_t>(i)];

    for (int mask = 0; mask < (1 << num_other); ++mask) {
      Coord nb_tc = my_tc;
      Coord shift = Coord::filled(rank, 0);
      nb_tc[d] = (my_tc[d] + 1) % counts[d];
      if (nb_tc[d] == 0) shift[d] = shape[d];  // periodic wrap in d
      for (int bit = 0; bit < num_other; ++bit) {
        if (!(mask & (1 << bit))) continue;
        const int e = other[static_cast<std::size_t>(bit)];
        nb_tc[e] = (my_tc[e] + 1) % counts[e];
        if (nb_tc[e] == 0) shift[e] = shape[e];
      }
      const int nb_tile = tile_index(counts, nb_tc);
      const TileState& nb = states[static_cast<std::size_t>(nb_tile)];
      for (int r = 0; r < num_regions; ++r) {
        core::Box shifted = regions[static_cast<std::size_t>(r)];
        for (int e = 0; e < rank; ++e) {
          shifted.lo[e] -= shift[e];
          shifted.hi[e] -= shift[e];
        }
        fn(shifted, u, nb, nb_tile);
      }
    }
  }
}

/// Builds the need table of tile `my_tile` from the geometry of every
/// tile: per (base, step) pair, the largest need on each neighbour tile
/// over the pair's producer regions (waits on several bases of one
/// neighbour collapse to their maximum).
void build_needs(const std::vector<TileState>& states, TileState& mine, int my_tile,
                 const Coord& counts, const Coord& shape, int s) {
  const int rank = shape.rank();
  const Coord my_tc = tile_coord(counts, my_tile);
  CoralsNeedTable& table = mine.needs;
  table.begin.assign(1, 0);
  table.needs.clear();
  for (const SpaceTimeTile& base : mine.bases) {
    for (Index t = base.t0; t < base.t1; ++t) {
      const auto first = static_cast<std::ptrdiff_t>(table.needs.size());
      for_each_right_producer(
          states, mine, my_tc, counts, shape, base, t, rank, s,
          [&](const core::Box& region, Index u, const TileState& nb, int nb_tile) {
            const long steps = region_need(nb, region, u, rank);
            if (steps == 0) return;
            const auto same = std::find_if(
                table.needs.begin() + first, table.needs.end(),
                [&](const CoralsNeed& need) { return need.tile == nb_tile; });
            if (same == table.needs.end())
              table.needs.push_back({nb_tile, steps});
            else
              same->steps = std::max(same->steps, steps);
          });
      table.begin.push_back(table.needs.size());
    }
  }
  mine.needs_height = mine.height;
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

std::vector<CoralsNeedTable> corals_needs(const Coord& shape, int threads, int s,
                                          const CoralsParams& params, long tau_act) {
  const CoralsLayout layout = plan_corals(shape, threads, s, params);
  const core::BaseSizes sizes = corals_base_sizes(params);
  std::vector<TileState> states(static_cast<std::size_t>(threads));
  for (std::size_t i = 0; i < states.size(); ++i)
    build_geometry(states[i], layout.tiles[i], layout.counts, shape, s, tau_act, sizes);
  std::vector<CoralsNeedTable> tables;
  for (int i = 0; i < threads; ++i) {
    TileState& ts = states[static_cast<std::size_t>(i)];
    build_needs(states, ts, i, layout.counts, shape, s);
    tables.push_back(std::move(ts.needs));
  }
  return tables;
}

RunResult CoralsScheme::run(core::Problem& problem, const RunConfig& config) const {
  const int rank = problem.shape().rank();
  NUSTENCIL_CHECK(config.boundary.all_periodic(rank),
                  "CORALS/nuCORALS require periodic boundaries (thread "
                  "parallelograms wrap around, Section III-A)");
  RunSupport sup(problem, config);
  const int n = config.num_threads;
  const int s = problem.stencil().order();
  const Coord& shape = problem.shape();

  const CoralsLayout layout = plan_corals(shape, n, s, params_);
  const Coord& counts = layout.counts;
  const std::vector<core::Box>& tiles = layout.tiles;

  // The owner map: tile -> thread.  nuCORALS keeps the allocating thread
  // (shift 0); the CORALS rendition shifts it by n/2 to model
  // affinity-blind assignment.
  const int owner_shift = params_.owner_shift.value_or(numa_aware_ ? 0 : n / 2);
  auto owner_of = [&](int tile) { return (tile + owner_shift) % n; };
  // allocator_of: the thread that first-touches tile `i` is always thread
  // i, so the data-to-core affinity holds only when owner_shift == 0.

  if (numa_aware_) {
    sup.run_workers([&](int tid) {
      sup.executor(tid).first_touch_box(tiles[static_cast<std::size_t>(tid)],
                                        sup.node_of_thread(tid), config.seed);
    });
  } else {
    sup.serial_init();
  }

  const long tau = layout.tau;
  const core::BaseSizes base_sizes = corals_base_sizes(params_);

  std::vector<TileState> states(static_cast<std::size_t>(n));
  // Bases of tile 0 in the first layer, which has the full height
  // min(tau, timesteps); the last layer may be shorter.
  std::size_t full_layer_bases = 0;

  // The run records its own per-step tile spans (they include the
  // box/clip geometry and need lookups between kernel calls, which are
  // significant for cache-sized bases); silence the executors' inner
  // spans so the time is not counted twice.
  for (int tid = 0; tid < n; ++tid) sup.executor(tid).set_trace(nullptr);
  sup.set_tasks(n, owner_of);
  threading::Barrier build_barrier(n);

  Timer timer;
  sup.run_workers([&](int tid) {
    trace::ThreadRecorder* rec = sup.recorder(tid);
    const int my_tile = [&] {
      for (int i = 0; i < n; ++i)
        if (owner_of(i) == tid) return i;
      return tid;
    }();
    TileState& mine = states[static_cast<std::size_t>(my_tile)];
    const core::Box& tile = tiles[static_cast<std::size_t>(my_tile)];
    long tb = 0, tau_act = 0;
    std::int32_t layer_index = 0;

    // The task step: runs tile i's next base parallelogram, one (base,
    // step) pair at a time, clipped against the thread parallelogram and
    // synchronised with the right neighbours (local synchronisation) at
    // every step whose inputs cross a thread boundary.  A need that does
    // not hold (stealing probes only) leaves the cursor at that pair.
    const TaskStep run_base = [&](int i, const TaskContext& ctx) {
      TileState& ts = states[static_cast<std::size_t>(i)];
      trace::ThreadRecorder* r = ctx.rec();
      if (ts.needs_height != tau_act) {
        // Built by whoever runs the tile first after the build barrier
        // (it reads the neighbours' geometry); an init leaf like the
        // geometry build.
        const trace::ScopedSpan needs_span(r, trace::Phase::Init, {layer_index, -1, -1, i});
        build_needs(states, ts, i, counts, shape, s);
      }
      const SpaceTimeTile& base = ts.bases[ts.next_base];
      ts.next_t = std::max<Index>(ts.next_t, base.t0);
      const Index first_t = ts.next_t;
      // Tile spans chain end-to-start (one clock read per step) so the
      // inter-step bookkeeping — need lookups, box/clip geometry, counter
      // advance — is accounted as compute; spin waits nest inside the
      // step span and their time is excluded from the tile total so the
      // leaf phases still partition thread time.  After a Progress
      // verdict the pool steps the task again next (its one tile is all
      // a CORALS thread owns), so the chain runs on across steps; a
      // Blocked one ends it.  Chained spans bypass ScopedSpan, so they
      // sample the per-span counters by hand: a snapshot at every chain
      // point turns the cumulative counters into per-step deltas that
      // sum to the totals.
      const bool sampling = r && r->sampler();
      if (r && ts.chain_ns < 0) {
        ts.chain_ns = r->now_ns();
        if (sampling) r->sample(ts.chain_counters);
      }
      const std::int64_t base_start = ts.chain_ns;
      for (; ts.next_t < base.t1; ++ts.next_t) {
        const Index t = ts.next_t;
        const std::int64_t spin_before = r ? r->total_ns(trace::Phase::SpinWait) : 0;
        for (std::size_t q = ts.needs.begin[ts.pairs]; q < ts.needs.begin[ts.pairs + 1];
             ++q) {
          const CoralsNeed& need = ts.needs.needs[q];
          if (!ctx.ready(states[static_cast<std::size_t>(need.tile)].done, need.steps,
                         need.tile)) {
            if (t > first_t) return sched::StepResult::Progress;
            ts.chain_ns = -1;
            return sched::StepResult::Blocked;
          }
        }
        const core::Box box = intersect(base.box_at(t), clip_box(ts, rank, t));
        if (!box.empty()) ctx.exec().update_box(box, tb + t, ctx.tid());
        ts.done.advance_to(static_cast<long>(++ts.pairs));
        if (r) {
          const std::int64_t end = r->now_ns();
          const trace::SpanArgs args{
              static_cast<std::int32_t>(box.lo[0]),
              rank >= 2 ? static_cast<std::int32_t>(box.lo[1]) : -1,
              rank >= 3 ? static_cast<std::int32_t>(box.lo[2]) : -1, ctx.tid()};
          const std::int64_t spun = r->total_ns(trace::Phase::SpinWait) - spin_before;
          if (sampling) {
            trace::CounterSet now;
            r->sample(now);
            const trace::CounterSet delta = now.delta_since(ts.chain_counters);
            r->record(trace::Phase::Tile, ts.chain_ns, end, args, 0, spun, &delta);
            ts.chain_counters = now;
          } else {
            r->record(trace::Phase::Tile, ts.chain_ns, end, args, 0, spun);
          }
          ts.chain_ns = end;
        }
      }
      // A base run in one visit gets its structural span.
      if (r && first_t == base.t0)
        r->record(trace::Phase::Parallelogram, base_start, r->now_ns(),
                  {static_cast<std::int32_t>(ts.next_base), layer_index, -1, i});
      ++ts.next_base;
      ts.next_t = 0;
      return ts.next_base < ts.bases.size() ? sched::StepResult::Progress
                                            : sched::StepResult::Done;
    };

    for (; tb < config.timesteps; tb += tau) {
      tau_act = std::min<long>(tau, config.timesteps - tb);
      layer_index = static_cast<std::int32_t>(tb / tau);
      sup.set_layer(tb / tau);
      const trace::ScopedSpan layer_span(
          rec, trace::Phase::Layer,
          {layer_index, static_cast<std::int32_t>(tb), static_cast<std::int32_t>(tau_act),
           my_tile});
      {
        // Build phase: thread parallelogram (clip) + root + bases, once
        // per layer height, and the progress counter and cursor every
        // layer.  Recorded as an init leaf — for deep layers the
        // recursive base decomposition is a visible setup cost.
        const trace::ScopedSpan build_span(rec, trace::Phase::Init,
                                           {layer_index, -1, -1, my_tile});
        if (mine.height != tau_act)
          build_geometry(mine, tile, counts, shape, s, tau_act, base_sizes);
        mine.done.reset();
        mine.next_base = 0;
        mine.next_t = 0;
        mine.pairs = 0;
        mine.chain_ns = -1;
        if (tb == 0 && my_tile == 0) full_layer_bases = mine.bases.size();
      }
      // The neighbours read the geometry from here on.
      build_barrier.arrive_and_wait(&sup.abort(), rec);
      sup.run_tasks(tid, run_base);
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(name(), seconds);
  r.details["tau"] = static_cast<double>(tau);
  r.details["b"] = static_cast<double>(layout.b);
  r.details["bases_per_layer"] = static_cast<double>(full_layer_bases);
  return r;
}

TrafficEstimate CoralsScheme::estimate_traffic(const topology::MachineSpec& machine,
                                               const Coord& shape,
                                               const core::StencilSpec& stencil,
                                               int threads, long timesteps) const {
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
