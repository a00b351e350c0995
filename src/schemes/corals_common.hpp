// CORALS and nuCORALS (paper Section III): one engine, NUMA-aware or not.
//
// CORALS — cache oblivious parallelograms [Strzodka, Shaheen, Pajak,
// Seidel, ICS'10] — is the cache-oblivious predecessor of nuCORALS.  It
// is rendered here as the same parallelogram engine made NUMA-ignorant:
// the data is initialised serially (every page lands on node 0, as the
// kernel's first-touch policy would place it for a serial allocator), and
// tiles are assigned to threads without regard for who allocated them (a
// map shifted by threads/2, modelling CORALS' affinity-blind task
// parallelism over the recursion).  This preserves exactly the properties
// Figs. 20-22 compare: identical cache-oblivious locality, no data-to-core
// affinity.
//
// Bidirectional tiling in virtual (unwrapped-periodic) coordinates:
//
//  Phase I   The spatial dimensions (all but unit-stride) are decomposed
//            into exactly one tile per thread; each thread first-touches
//            its tile (nuCORALS) or thread 0 initialises everything
//            (CORALS, NUMA-ignorant).
//
//  Phase II  Time is tiled into layers of height tau = b/(2s) where b is
//            the smallest decomposed extent of a thread tile.  Within a
//            layer, each tile owns a *thread parallelogram*: its spatial
//            window skewed RIGHT with slope s in every decomposed
//            dimension (the window of an undecomposed y/z is the whole
//            ring, skewed the same way).  Right-skewing makes the window
//            match the stencil's dependence cone: a thread never reads
//            anything left of its own window, so dependencies flow
//            exclusively from the right neighbour to the left one.  An
//            undecomposed unit-stride dimension x is the whole ring
//            *unskewed*, so every row stays one contiguous kernel call
//            instead of wrapping mid-row (paper Section III-D).
//
//  Phase III Each thread covers its thread parallelogram with a *root
//            parallelogram* skewed LEFT (slope -s; an undecomposed x stays
//            the unskewed ring), recursively bisected along the relatively
//            longest skewed dimension into *base parallelograms*
//            (core::decompose_parallelogram, which never cuts an unskewed
//            dimension, so bases span whole x rows).  Bases are executed
//            in recursion order — which provably respects every
//            intra-thread dependency for left-skewed cuts — and clipped
//            against the thread parallelogram.  Each tile publishes one
//            progress counter: the number of (base, step) pairs it has
//            completed, in its fixed execution order.  A step whose inputs
//            cross the right window boundary waits, per right or diagonal
//            neighbour tile, until that counter covers every neighbour base
//            whose local part overlaps the needed input region at the
//            previous step (the paper's "local synchronisation").  The
//            order is fixed, so "base k has done step u" is one counter
//            threshold, and the waits on one neighbour collapse to their
//            maximum.  These thresholds form a need table, built once per
//            layer height (corals_needs).  A global barrier separates
//            layers.
//
//            Deadlock freedom: time is cut first, so the bases of every
//            thread share the same time bands; a cross-thread wait targets
//            a right neighbour's progress at a strictly earlier step and
//            exists only in decomposed dimensions.  The unskewed x ring
//            has no neighbour, so whole rows add no wait edge.  A counter
//            threshold waits for exactly the (base, step) states that the
//            per-base rule names, so the argument holds for the one
//            counter per tile.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/spacetime.hpp"

#include "schemes/scheme.hpp"

namespace nustencil::schemes {

/// Geometry and assignment overrides of the engine; the defaults are the
/// paper's.  Ablation benches and tests set them.
struct CoralsParams {
  /// Tile -> thread: owner = (tile + owner_shift) % threads.  Unset, it
  /// is 0 for nuCORALS (the allocating thread processes its own tile) and
  /// threads/2 for CORALS (the shifted map).  The assignment ablation sets
  /// it explicitly.
  std::optional<int> owner_shift;
  /// Override tau (0 = the paper's default b/(2s)).
  long tau_override = 0;
  /// Override the y/z base parallelogram size and the base height (0 =
  /// defaults).  x needs no size: bases span whole rows unless x is
  /// decomposed, in which case it keeps the core::BaseSizes default.
  Index base_space = 0;
  long base_time = 0;

  /// Override the spatial decomposition (rank-matching Coord whose product
  /// equals the thread count); rank 0 = the paper's default (never cut the
  /// unit-stride dimension).  Used by the unit-stride ablation bench.
  Coord force_counts;
};

/// Phases I/II: the thread-tile grid, the smallest decomposed extent b
/// and the layer height tau.
struct CoralsLayout {
  Coord counts;
  std::vector<core::Box> tiles;
  Index b = 0;
  long tau = 0;
};
CoralsLayout plan_corals(const Coord& shape, int threads, int s,
                         const CoralsParams& params);

/// Base sizes of the Phase III recursion for `params`.
core::BaseSizes corals_base_sizes(const CoralsParams& params);

/// Phase III geometry of thread tile `tile` in a layer of `tau_act` steps
/// (layer-relative time): the thread parallelogram it computes (`clip`)
/// and the root parallelogram whose recursion covers it.
struct CoralsLayer {
  std::array<core::SkewedInterval, 3> clip{};
  core::SpaceTimeTile root;
};
CoralsLayer corals_layer(const core::Box& tile, const Coord& counts, const Coord& shape,
                         int s, long tau_act);

/// One wait of a (base, step) pair on a neighbour tile: that tile must
/// have completed at least `steps` of its (base, step) pairs this layer.
struct CoralsNeed {
  int tile = 0;
  long steps = 0;
};

/// A tile's need table for one layer height.  The tile runs its (base,
/// step) pairs in one fixed order — bases in recursion order, each from
/// its first step to its last — under every schedule; the needs of its
/// p-th pair are needs[begin[p], begin[p + 1]), at most one per
/// neighbour tile (so at most 3 with two decomposed dimensions).
struct CoralsNeedTable {
  std::vector<std::size_t> begin{0};
  std::vector<CoralsNeed> needs;
};

/// The need table of every thread tile in a layer of `tau_act` steps,
/// indexed by tile.
std::vector<CoralsNeedTable> corals_needs(const Coord& shape, int threads, int s,
                                          const CoralsParams& params, long tau_act);

/// nuCORALS (`numa_aware`: parallel first touch by the owners) or CORALS
/// (serial init, shifted map), with the overrides of `params`.
class CoralsScheme : public Scheme {
 public:
  explicit CoralsScheme(bool numa_aware, CoralsParams params = {})
      : numa_aware_(numa_aware), params_(std::move(params)) {}

  std::string name() const override { return numa_aware_ ? "nuCORALS" : "CORALS"; }
  bool numa_aware() const override { return numa_aware_; }
  RunResult run(core::Problem& problem, const RunConfig& config) const override;
  TrafficEstimate estimate_traffic(const topology::MachineSpec& machine, const Coord& shape,
                                   const core::StencilSpec& stencil, int threads,
                                   long timesteps) const override;

 private:
  bool numa_aware_;
  CoralsParams params_;
};

}  // namespace nustencil::schemes
