#include "core/spacetime.hpp"

#include "common/error.hpp"

namespace nustencil::core {

Box SpaceTimeTile::box_at(Index t) const {
  NUSTENCIL_DCHECK(t >= t0 && t < t1, "box_at: time outside tile");
  const Index dt = t - t0;
  Box b;
  b.lo = Coord::filled(rank, 0);
  b.hi = Coord::filled(rank, 0);
  for (int d = 0; d < rank; ++d) {
    b.lo[d] = dims[static_cast<std::size_t>(d)].lo_at(dt);
    b.hi[d] = dims[static_cast<std::size_t>(d)].hi_at(dt);
  }
  return b;
}

Index SpaceTimeTile::volume() const {
  Index v = 0;
  for (Index t = t0; t < t1; ++t) {
    Index prod = 1;
    for (int d = 0; d < rank; ++d) {
      const Index w = dims[static_cast<std::size_t>(d)].width_at(t - t0);
      prod *= w > 0 ? w : 0;
    }
    v += prod;
  }
  return v;
}

std::pair<SpaceTimeTile, SpaceTimeTile> SpaceTimeTile::time_cut(Index tm) const {
  NUSTENCIL_CHECK(tm > t0 && tm < t1, "time_cut: cut outside tile");
  SpaceTimeTile lower = *this;
  lower.t1 = tm;
  SpaceTimeTile upper = *this;
  upper.t0 = tm;
  const Index dt = tm - t0;
  for (int d = 0; d < rank; ++d) {
    auto& iv = upper.dims[static_cast<std::size_t>(d)];
    iv.lo = iv.lo_at(dt);
    iv.hi = iv.hi_at(dt);
  }
  return {lower, upper};
}

std::pair<SpaceTimeTile, SpaceTimeTile> SpaceTimeTile::space_cut(int d, Index c) const {
  const auto& iv = dims[static_cast<std::size_t>(d)];
  NUSTENCIL_CHECK(iv.parallel(), "space_cut: dimension must have parallel slopes");
  NUSTENCIL_CHECK(c > iv.lo && c < iv.hi, "space_cut: cut outside interval");
  SpaceTimeTile left = *this;
  left.dims[static_cast<std::size_t>(d)].hi = c;
  SpaceTimeTile right = *this;
  right.dims[static_cast<std::size_t>(d)].lo = c;
  return {left, right};
}

namespace {

void decompose_impl(const SpaceTimeTile& tile, const BaseSizes& base,
                    std::vector<SpaceTimeTile>& out) {
  // Time is always cut first (down to the base height) so that the time
  // bands of the base parallelograms align globally across congruent and
  // non-congruent thread tiles alike.  That alignment makes the
  // inter-thread spin-flag protocol of nuCORALS deadlock-free: a base
  // waiting across a thread boundary only ever targets neighbour bases in
  // the same or an earlier time band, and within a band the left-skewed
  // space-cut order guarantees the producing (left-edge) bases carry no
  // cross-boundary waits of their own.  Cross-thread waits exist only in
  // skewed (decomposed) dimensions; an unskewed dimension is a whole
  // periodic ring with no neighbour, and it is never cut (below).
  if (tile.timesteps() > base.time) {
    const auto [lower, upper] = tile.time_cut(tile.t0 + tile.timesteps() / 2);
    decompose_impl(lower, base, out);  // time cut: lower half first
    decompose_impl(upper, base, out);
    return;
  }

  // Within a band: cut the relatively longest skewed spatial dimension.
  // An unskewed (slope 0) interval is never bisected: each half would read
  // the other at the previous step of the same band, so no execution order
  // of the two halves respects the dependencies.  This keeps unit-stride
  // rows whole whenever the scheme leaves x unskewed.
  int cut_dim = -2;
  double best = 1.0;
  for (int d = 0; d < tile.rank; ++d) {
    const SkewedInterval& iv = tile.dims[static_cast<std::size_t>(d)];
    if (iv.slope_lo == 0 && iv.slope_hi == 0) continue;
    const Index w = iv.hi - iv.lo;
    const double ratio = static_cast<double>(w) / static_cast<double>(base.space[static_cast<std::size_t>(d)]);
    if (w > base.space[static_cast<std::size_t>(d)] && ratio > best) {
      best = ratio;
      cut_dim = d;
    }
  }

  if (cut_dim == -2) {
    out.push_back(tile);  // base parallelogram reached
    return;
  }

  const auto& iv = tile.dims[static_cast<std::size_t>(cut_dim)];
  const auto [left, right] = tile.space_cut(cut_dim, iv.lo + (iv.hi - iv.lo) / 2);
  if (iv.slope_lo < 0) {
    // Left skew: the right child reads the left child's results, so the
    // left child must execute first.
    decompose_impl(left, base, out);
    decompose_impl(right, base, out);
  } else {
    decompose_impl(right, base, out);
    decompose_impl(left, base, out);
  }
}

}  // namespace

void decompose_parallelogram(const SpaceTimeTile& root, const BaseSizes& base,
                             std::vector<SpaceTimeTile>& out) {
  NUSTENCIL_CHECK(root.timesteps() > 0, "decompose: empty time range");
  decompose_impl(root, base, out);
}

}  // namespace nustencil::core
