// Space-time tile geometry: skewed intervals, cuts, and the recursive
// decomposition's coverage and ordering invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/spacetime.hpp"

namespace nustencil::core {
namespace {

SpaceTimeTile tile_1d(Index lo, Index hi, int slope, Index t0, Index t1) {
  SpaceTimeTile t;
  t.rank = 1;
  t.t0 = t0;
  t.t1 = t1;
  t.dims[0] = SkewedInterval{lo, hi, slope, slope};
  return t;
}

TEST(SkewedInterval, Evaluation) {
  SkewedInterval iv{10, 20, -1, -1};
  EXPECT_EQ(iv.lo_at(0), 10);
  EXPECT_EQ(iv.lo_at(3), 7);
  EXPECT_EQ(iv.hi_at(3), 17);
  EXPECT_EQ(iv.width_at(3), 10);
  EXPECT_TRUE(iv.parallel());
}

TEST(SpaceTimeTile, BoxAtAndVolume) {
  const SpaceTimeTile t = tile_1d(0, 10, -1, 0, 4);
  EXPECT_EQ(t.box_at(0).lo[0], 0);
  EXPECT_EQ(t.box_at(3).lo[0], -3);
  EXPECT_EQ(t.box_at(3).hi[0], 7);
  EXPECT_EQ(t.volume(), 40);  // width 10 at each of 4 steps
}

TEST(SpaceTimeTile, TimeCutRebasesUpperTile) {
  const SpaceTimeTile t = tile_1d(0, 10, -2, 0, 6);
  const auto [lower, upper] = t.time_cut(2);
  EXPECT_EQ(lower.t1, 2);
  EXPECT_EQ(upper.t0, 2);
  EXPECT_EQ(upper.dims[0].lo, -4);  // rebased: lo + slope*2
  // The boxes at the cut seam line up.
  EXPECT_EQ(lower.box_at(1).lo[0], upper.box_at(2).lo[0] + 2);
}

TEST(SpaceTimeTile, SpaceCutPartitions) {
  const SpaceTimeTile t = tile_1d(0, 10, -1, 0, 3);
  const auto [left, right] = t.space_cut(0, 4);
  for (Index dt = 0; dt < 3; ++dt) {
    EXPECT_EQ(left.box_at(dt).hi[0], right.box_at(dt).lo[0]);
    EXPECT_EQ(left.box_at(dt).lo[0], t.box_at(dt).lo[0]);
    EXPECT_EQ(right.box_at(dt).hi[0], t.box_at(dt).hi[0]);
  }
}

TEST(SpaceTimeTile, InvalidCutsThrow) {
  SpaceTimeTile t = tile_1d(0, 10, -1, 0, 4);
  EXPECT_THROW(t.time_cut(0), Error);
  EXPECT_THROW(t.time_cut(4), Error);
  EXPECT_THROW(t.space_cut(0, 0), Error);
  t.dims[0].slope_lo = 1;  // trapezoid: space cut undefined here
  EXPECT_THROW(t.space_cut(0, 5), Error);
}

class DecompositionProperty : public ::testing::TestWithParam<std::tuple<Index, Index, int>> {};

TEST_P(DecompositionProperty, BasesPartitionTheRootExactly) {
  const auto [width, steps, slope] = GetParam();
  SpaceTimeTile root = tile_1d(0, width, slope, 0, steps);
  BaseSizes sizes;
  sizes.time = 4;
  sizes.space = {8, 8, 8};
  std::vector<SpaceTimeTile> bases;
  decompose_parallelogram(root, sizes, bases);

  // Every space-time point of the root is covered by exactly one base.
  std::map<std::pair<Index, Index>, int> cover;
  for (const auto& b : bases)
    for (Index t = b.t0; t < b.t1; ++t) {
      const Box box = b.box_at(t);
      for (Index x = box.lo[0]; x < box.hi[0]; ++x) ++cover[{t, x}];
    }
  EXPECT_EQ(static_cast<Index>(cover.size()), root.volume());
  for (const auto& [pt, count] : cover) EXPECT_EQ(count, 1) << "t=" << pt.first;
}

TEST_P(DecompositionProperty, OrderRespectsDependencies) {
  const auto [width, steps, slope] = GetParam();
  if (slope > 0) GTEST_SKIP() << "dependency order is defined for left skew";
  SpaceTimeTile root = tile_1d(0, width, slope, 0, steps);
  BaseSizes sizes;
  sizes.time = 4;
  sizes.space = {8, 8, 8};
  std::vector<SpaceTimeTile> bases;
  decompose_parallelogram(root, sizes, bases);

  // Emulate execution: each point (x, t) requires (x-s..x+s, t-1) points of
  // the root to be done.  Walk bases in order and check.
  const int s = -slope;
  std::map<std::pair<Index, Index>, bool> done;
  for (const auto& b : bases)
    for (Index t = b.t0; t < b.t1; ++t) {
      const Box box = b.box_at(t);
      for (Index x = box.lo[0]; x < box.hi[0]; ++x) {
        if (t > 0) {
          for (Index k = -s; k <= s; ++k) {
            // Only inputs inside the root matter (the rest comes from
            // neighbouring thread parallelograms).
            const Index lo = root.dims[0].lo_at(t - 1), hi = root.dims[0].hi_at(t - 1);
            if (x + k >= lo && x + k < hi) {
              EXPECT_TRUE((done[{t - 1, x + k}]))
                  << "point (" << x << "," << t << ") ran before its input";
            }
          }
        }
        done[{t, x}] = true;
      }
    }
}

TEST_P(DecompositionProperty, BasesRespectSizeBounds) {
  const auto [width, steps, slope] = GetParam();
  SpaceTimeTile root = tile_1d(0, width, slope, 0, steps);
  BaseSizes sizes;
  sizes.time = 4;
  sizes.space = {8, 8, 8};
  std::vector<SpaceTimeTile> bases;
  decompose_parallelogram(root, sizes, bases);
  for (const auto& b : bases) {
    EXPECT_LE(b.timesteps(), sizes.time);
    EXPECT_LE(b.dims[0].hi - b.dims[0].lo, sizes.space[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompositionProperty,
    ::testing::Values(std::make_tuple<Index, Index, int>(16, 8, -1),
                      std::make_tuple<Index, Index, int>(33, 7, -1),
                      std::make_tuple<Index, Index, int>(64, 16, -2),
                      std::make_tuple<Index, Index, int>(21, 5, -3),
                      std::make_tuple<Index, Index, int>(16, 8, 1),
                      std::make_tuple<Index, Index, int>(40, 12, 2),
                      std::make_tuple<Index, Index, int>(7, 3, -1),
                      std::make_tuple<Index, Index, int>(128, 32, -1)));

TEST(Decomposition, UnskewedDimensionIsNeverCut) {
  // nuCORALS' root with x undecomposed: x is the whole unskewed ring (slope
  // 0), y is left-skewed.  The bases must still partition the root, run in
  // dependency order (x reads wrap around the ring), and span x whole.
  constexpr Index nx = 20;
  SpaceTimeTile root;
  root.rank = 2;
  root.t0 = 0;
  root.t1 = 9;
  root.dims[0] = SkewedInterval{0, nx, 0, 0};
  root.dims[1] = SkewedInterval{0, 30, -1, -1};
  BaseSizes sizes;
  sizes.time = 4;
  sizes.space = {4, 8, 8};  // x would be cut if its slope allowed it
  std::vector<SpaceTimeTile> bases;
  decompose_parallelogram(root, sizes, bases);
  ASSERT_GT(bases.size(), 1u);

  std::map<std::tuple<Index, Index, Index>, int> done;  // (t, x, y) -> cover
  const auto ready = [&](Index t, Index x, Index y) { return done.count({t, x, y}) == 1; };
  for (const auto& b : bases) {
    EXPECT_EQ(b.dims[0].lo, 0);
    EXPECT_EQ(b.dims[0].hi, nx);
    EXPECT_EQ(b.dims[0].slope_lo, 0);
    EXPECT_LE(b.dims[1].hi - b.dims[1].lo, sizes.space[1]);
    for (Index t = b.t0; t < b.t1; ++t) {
      const Box box = b.box_at(t);
      for (Index y = box.lo[1]; y < box.hi[1]; ++y)
        for (Index x = box.lo[0]; x < box.hi[0]; ++x) {
          if (t > 0) {
            // Only inputs inside the root matter (as in the 1D sweep).
            const Index ylo = root.dims[1].lo_at(t - 1), yhi = root.dims[1].hi_at(t - 1);
            for (Index k = -1; k <= 1; ++k) {
              if (y >= ylo && y < yhi) {
                EXPECT_TRUE(ready(t - 1, (x + k + nx) % nx, y))
                    << "x input of (" << x << "," << y << "," << t << ") not ready";
              }
              if (y + k >= ylo && y + k < yhi) {
                EXPECT_TRUE(ready(t - 1, x, y + k))
                    << "y input of (" << x << "," << y << "," << t << ") not ready";
              }
            }
          }
          ++done[{t, x, y}];
        }
    }
  }
  EXPECT_EQ(static_cast<Index>(done.size()), root.volume());
  for (const auto& [pt, count] : done) EXPECT_EQ(count, 1);
}

TEST(Decomposition, TimeBandsAlignAcrossTranslatedRoots) {
  // The deadlock-freedom of nuCORALS' local synchronisation relies on all
  // thread tiles sharing the same time-band structure (time is cut first).
  BaseSizes sizes;
  std::vector<SpaceTimeTile> a, b;
  decompose_parallelogram(tile_1d(0, 40, -1, 0, 30), sizes, a);
  decompose_parallelogram(tile_1d(13, 52, -1, 0, 30), sizes, b);  // width 39
  std::set<std::pair<Index, Index>> bands_a, bands_b;
  for (const auto& t : a) bands_a.insert({t.t0, t.t1});
  for (const auto& t : b) bands_b.insert({t.t0, t.t1});
  EXPECT_EQ(bands_a, bands_b);
}

}  // namespace
}  // namespace nustencil::core
