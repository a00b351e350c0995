// Space-time tile geometry: skewed parallelotopes and their cuts.
//
// A SpaceTimeTile covers time steps [t0, t1); in each spatial dimension it
// covers, at time t, the half-open interval
//     [lo + slope_lo * (t - t0),  hi + slope_hi * (t - t0)).
// Uniform slopes (slope_lo == slope_hi) give parallelograms (CORALS,
// nuCORALS thread/root/base parallelograms, CATS wavefront tiles);
// differing slopes give trapezoids (the Frigo-Strumpen decomposition used
// by the Pochoir stand-in).  Coordinates are *virtual*: they may leave the
// domain and wrap periodically when executed.
#pragma once

#include <array>
#include <vector>

#include "core/box.hpp"

namespace nustencil::core {

struct SkewedInterval {
  Index lo = 0;
  Index hi = 0;
  int slope_lo = 0;
  int slope_hi = 0;

  Index lo_at(Index dt) const { return lo + static_cast<Index>(slope_lo) * dt; }
  Index hi_at(Index dt) const { return hi + static_cast<Index>(slope_hi) * dt; }
  Index width_at(Index dt) const { return hi_at(dt) - lo_at(dt); }
  bool parallel() const { return slope_lo == slope_hi; }
};

struct SpaceTimeTile {
  Index t0 = 0;
  Index t1 = 0;
  int rank = 0;
  std::array<SkewedInterval, 3> dims{};

  Index timesteps() const { return t1 - t0; }

  /// Spatial box covered at absolute time step t (t in [t0, t1)).
  Box box_at(Index t) const;

  /// Number of space-time points (sum of box volumes over all steps).
  Index volume() const;

  /// Cuts the time range at absolute step tm (t0 < tm < t1) into
  /// {[t0,tm), [tm,t1)}; the upper tile's intervals are re-based at tm.
  std::pair<SpaceTimeTile, SpaceTimeTile> time_cut(Index tm) const;

  /// Cuts spatial dimension d (which must have parallel slopes) at
  /// position c measured at t0 (lo < c < hi).  Returns {left, right}.
  std::pair<SpaceTimeTile, SpaceTimeTile> space_cut(int d, Index c) const;
};

/// Recursive CORALS-style decomposition of a parallelogram `root` into base
/// parallelograms, appended to `out` in a dependency-respecting sequential
/// order for slope `-s` (left skew): time cuts emit lower before upper,
/// space cuts emit left before right.  For slope `+s` tiles the space-cut
/// order flips automatically based on the sign of the slope.  Unskewed
/// (slope 0) dimensions are never cut: a base spans them whole.
struct BaseSizes {
  Index time = 8;                       ///< stop when timesteps <= time
  std::array<Index, 3> space{32, 8, 8}; ///< per-dim stop size (skewed dims only)
};

void decompose_parallelogram(const SpaceTimeTile& root, const BaseSizes& base,
                             std::vector<SpaceTimeTile>& out);

}  // namespace nustencil::core
