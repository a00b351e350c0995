// CORALS / nuCORALS correctness: the bidirectional tiling engine against
// the reference, with dependency-order validation, multiple layers, high
// orders, banded coefficients, 1D/2D/3D domains and awkward (prime) sizes.
#include <gtest/gtest.h>

#include <map>

#include "schemes/corals_common.hpp"
#include "test_util.hpp"

namespace nustencil {
namespace {

using schemes::CoralsScheme;
using schemes::RunConfig;

RunConfig corals_config(int threads, long steps, bool check = true) {
  RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = steps;
  cfg.check_dependencies = check;
  return cfg;
}

TEST(NuCoralsScheme, SingleThread3D) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{16, 12, 14}, core::StencilSpec::paper_3d7p(),
                                 corals_config(1, 5));
}

TEST(NuCoralsScheme, TwoThreads3D) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{16, 14, 12}, core::StencilSpec::paper_3d7p(),
                                 corals_config(2, 6));
}

TEST(NuCoralsScheme, FourThreads3D) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{18, 16, 14}, core::StencilSpec::paper_3d7p(),
                                 corals_config(4, 7));
}

TEST(NuCoralsScheme, EightThreads3D) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{16, 16, 16}, core::StencilSpec::paper_3d7p(),
                                 corals_config(8, 5));
}

TEST(NuCoralsScheme, PrimeSizes) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{17, 13, 11}, core::StencilSpec::paper_3d7p(),
                                 corals_config(3, 5));
}

TEST(NuCoralsScheme, MultipleLayers) {
  const CoralsScheme scheme(true);
  // tau = b/(2s) is small here, so many layers with barriers in between.
  test::expect_matches_reference(scheme, Coord{14, 12, 12}, core::StencilSpec::paper_3d7p(),
                                 corals_config(4, 17));
}

TEST(NuCoralsScheme, HighOrder2) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{20, 18, 16}, core::StencilSpec::stable_star(3, 2),
                                 corals_config(2, 4));
}

TEST(NuCoralsScheme, HighOrder3) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{24, 22, 20}, core::StencilSpec::stable_star(3, 3),
                                 corals_config(2, 3));
}

TEST(NuCoralsScheme, Banded) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{14, 12, 10}, core::StencilSpec::banded_star(3, 1),
                                 corals_config(2, 5));
}

TEST(NuCoralsScheme, TwoDimensional) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{24, 18}, core::StencilSpec::stable_star(2, 1),
                                 corals_config(3, 6));
}

TEST(NuCoralsScheme, OneDimensional) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{64}, core::StencilSpec::stable_star(1, 1),
                                 corals_config(4, 6));
}

// Wide rows: x far exceeds a base, so these exercise the whole-row bases
// (x is never decomposed, never skewed and never cut).  The 3D sweeps of
// this path live in scheme_property_test.
TEST(NuCoralsScheme, WideRowsTwoDimensional) {
  const CoralsScheme scheme(true);
  test::expect_matches_reference(scheme, Coord{200, 40}, core::StencilSpec::stable_star(2, 1),
                                 corals_config(3, 13));
}

TEST(NuCoralsScheme, WideRowsSteal) {
  const CoralsScheme scheme(true);
  RunConfig cfg = corals_config(4, 17);
  cfg.schedule = sched::Schedule::Steal;
  test::expect_matches_reference(scheme, Coord{70, 20, 18}, core::StencilSpec::paper_3d7p(),
                                 cfg);
}

TEST(NuCoralsScheme, RowsStayWhole) {
  // Each (y, z, t) row is one kernel call, exactly as in the naive sweep.
  // With the rotated AVX2 kernel that call is the whole periodic row, so
  // no cell takes the scalar wrap path.
  struct Counts {
    std::uint64_t rows = 0, slow_cells = 0;
    Index updates = 0;
  };
  const auto kernel_counts = [](const std::string& name) {
    metrics::Registry registry(4);
    RunConfig cfg = corals_config(4, 4, /*check=*/false);
    cfg.metrics = &registry;
    core::Problem problem(Coord{64, 16, 16}, core::StencilSpec::paper_3d7p());
    Counts c;
    c.updates = schemes::make_scheme(name)->run(problem, cfg).updates;
    for (const auto& [counter, value] : registry.snapshot().counters) {
      if (counter.rfind("kernel/rows/", 0) == 0) c.rows += value;
      if (counter == "kernel/slow_cells") c.slow_cells += value;
    }
    return c;
  };
  const Counts naive = kernel_counts("NaiveSSE");
  EXPECT_EQ(naive.rows, 16u * 16u * 4u);
  const Counts corals = kernel_counts("nuCORALS");
  EXPECT_EQ(corals.rows, naive.rows);
  if (core::kernel_isa_supported(core::KernelIsa::AVX2)) {
    EXPECT_EQ(corals.slow_cells, 0u);
    // Fast cells (updates - slow cells, as the perf ledger counts them)
    // are every update of the 64x16x16 domain over 4 steps.
    EXPECT_EQ(static_cast<std::uint64_t>(corals.updates) - corals.slow_cells,
              64u * 16u * 16u * 4u);
  }
}

TEST(NuCoralsScheme, TauOverride) {
  for (long tau : {1L, 2L, 5L}) {
    schemes::CoralsParams params;
    params.tau_override = tau;
    const CoralsScheme scheme(true, params);
    test::expect_matches_reference(scheme, Coord{14, 12, 12}, core::StencilSpec::paper_3d7p(),
                                   corals_config(2, 6));
  }
}

TEST(NuCoralsScheme, InstrumentedLocalityMatchesPaperTarget) {
  const CoralsScheme scheme(true);
  RunConfig cfg = corals_config(8, 12, /*check=*/false);
  cfg.instrument = true;
  core::Problem problem(Coord{48, 48, 48}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, cfg);
  // Section III-C: with tau = b/2, about 75% of the processed data is
  // thread-local. Page granularity and halos blur this; expect >= 60%.
  EXPECT_GT(result.traffic.locality(), 0.60);
  EXPECT_GT(result.details.at("tau"), 0.0);
}

TEST(CoralsScheme, MatchesReference) {
  const CoralsScheme scheme(false);
  test::expect_matches_reference(scheme, Coord{16, 14, 12}, core::StencilSpec::paper_3d7p(),
                                 corals_config(4, 6));
}

TEST(CoralsScheme, MatchesReferenceManyThreads) {
  const CoralsScheme scheme(false);
  test::expect_matches_reference(scheme, Coord{16, 16, 16}, core::StencilSpec::paper_3d7p(),
                                 corals_config(8, 5));
}

TEST(CoralsScheme, LocalityIsPoorAcrossSockets) {
  const CoralsScheme scheme(false);
  RunConfig cfg = corals_config(16, 8, /*check=*/false);
  cfg.instrument = true;
  core::Problem problem(Coord{32, 32, 32}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, cfg);
  // Serial init: all pages on node 0, threads on 2 sockets.
  EXPECT_LT(result.traffic.locality(), 0.7);
}

TEST(NuCoralsScheme, UpdateCountExact) {
  const CoralsScheme scheme(true);
  core::Problem problem(Coord{12, 12, 12}, core::StencilSpec::paper_3d7p());
  const auto result = scheme.run(problem, corals_config(4, 9));
  EXPECT_EQ(result.updates, 12 * 12 * 12 * 9);
}

TEST(NuCoralsScheme, WaitsForAcrossTapsOfCellsBeyondTheBoundary) {
  // Found by Fuzz.CoralsGeometryMatchesReference: 9- and 10-wide y tiles
  // cut their bases at different z positions, so a cell the window gained
  // since u reads a z-neighbour at u from a later neighbour base than any
  // base under its own z range.  The wait must cover those z-axis taps.
  schemes::CoralsParams params;
  params.base_space = 2;
  params.base_time = 3;
  const CoralsScheme engine(true, params);
  for (int s = 1; s <= 2; ++s) {
    for (const auto schedule : {sched::Schedule::Static, sched::Schedule::Steal}) {
      for (int rep = 0; rep < 4; ++rep) {
        RunConfig cfg = corals_config(4, 10, /*check=*/rep % 2 == 0);
        cfg.schedule = schedule;
        test::expect_matches_reference(engine, Coord{18, 19, 20},
                                       core::StencilSpec::stable_star(3, s), cfg);
      }
    }
  }
}

// ---- Need table ---------------------------------------------------------

/// One thread tile's layer geometry, rebuilt from the public Phase II/III
/// helpers, with the number of (base, step) pairs before each base.
struct RefTile {
  std::array<core::SkewedInterval, 3> clip{};
  std::vector<core::SpaceTimeTile> bases;
  std::vector<long> pair0;
  long pairs = 0;
};

/// Brute-force needs of pair (base, t) of tile `me`, point by point:
/// every input the star stencil reads at u = t - 1 for the cells the pair
/// computes, if another tile's window holds it at u (modulo the periodic
/// domain), names the base of that tile whose local part holds it.  Per
/// tile: the pair count that covers the latest such (base, u).
std::map<int, long> scan_needs(const std::vector<RefTile>& tiles, int me,
                               const Coord& shape, int s,
                               const core::SpaceTimeTile& base, Index t) {
  std::map<int, long> out;
  if (t < 1) return out;
  const int rank = shape.rank();
  const Index u = t - 1;
  const RefTile& mine = tiles[static_cast<std::size_t>(me)];
  const core::Box bb = base.box_at(t);
  core::Box cells = bb;
  for (int e = 0; e < rank; ++e) {
    const auto& clip = mine.clip[static_cast<std::size_t>(e)];
    cells.lo[e] = std::max(bb.lo[e], clip.lo_at(t));
    cells.hi[e] = std::min(bb.hi[e], clip.hi_at(t));
    if (cells.lo[e] >= cells.hi[e]) return out;
  }
  const auto read = [&](const Coord& q) {
    for (std::size_t nb = 0; nb < tiles.size(); ++nb) {
      const RefTile& other = tiles[nb];
      Coord local = q;  // q in the frame of tile nb's window at u
      bool inside = true;
      for (int e = 0; e < rank && inside; ++e) {
        const auto& clip = other.clip[static_cast<std::size_t>(e)];
        const Index lo = clip.lo_at(u);
        local[e] = lo + (((q[e] - lo) % shape[e]) + shape[e]) % shape[e];
        inside = local[e] < clip.hi_at(u);
      }
      if (!inside) continue;
      if (static_cast<int>(nb) == me) return;
      for (std::size_t k = 0; k < other.bases.size(); ++k) {
        const core::SpaceTimeTile& nbase = other.bases[k];
        if (u < nbase.t0 || u >= nbase.t1) continue;
        const core::Box nbox = nbase.box_at(u);
        bool holds = true;
        for (int e = 0; e < rank; ++e)
          holds = holds && nbox.lo[e] <= local[e] && local[e] < nbox.hi[e];
        if (!holds) continue;
        long& need = out[static_cast<int>(nb)];
        need = std::max(need, other.pair0[k] + (u - nbase.t0) + 1);
        return;
      }
      ADD_FAILURE() << "no base holds an input";
      return;
    }
    ADD_FAILURE() << "no window holds an input";
  };
  Coord p = cells.lo;
  while (true) {
    for (int a = 0; a < rank; ++a) {
      for (int off = -s; off <= s; ++off) {
        Coord q = p;
        q[a] += off;
        read(q);
      }
    }
    int e = 0;
    for (; e < rank; ++e) {
      if (++p[e] < cells.hi[e]) break;
      p[e] = cells.lo[e];
    }
    if (e == rank) break;
  }
  return out;
}

void expect_needs_match_scan(const Coord& shape, int threads, int s,
                             const schemes::CoralsParams& params, long tau_act) {
  SCOPED_TRACE(::testing::Message()
               << "rank " << shape.rank() << " n=" << threads << " s=" << s
               << " tau_act=" << tau_act << " base " << params.base_space << "x"
               << params.base_time);
  const schemes::CoralsLayout layout = schemes::plan_corals(shape, threads, s, params);
  std::vector<RefTile> tiles(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    RefTile& ref = tiles[static_cast<std::size_t>(i)];
    const schemes::CoralsLayer layer = schemes::corals_layer(
        layout.tiles[static_cast<std::size_t>(i)], layout.counts, shape, s, tau_act);
    ref.clip = layer.clip;
    core::decompose_parallelogram(layer.root, schemes::corals_base_sizes(params),
                                  ref.bases);
    for (const auto& base : ref.bases) {
      ref.pair0.push_back(ref.pairs);
      ref.pairs += base.timesteps();
    }
  }
  int decomposed = 0;
  for (int d = 0; d < shape.rank(); ++d) decomposed += layout.counts[d] > 1 ? 1 : 0;
  // One entry per neighbour tile: d-, e- and diagonal neighbours.
  const std::size_t max_entries = (std::size_t{1} << decomposed) - 1;

  const std::vector<schemes::CoralsNeedTable> tables =
      schemes::corals_needs(shape, threads, s, params, tau_act);
  ASSERT_EQ(tables.size(), tiles.size());
  std::size_t total = 0;
  for (int i = 0; i < threads; ++i) {
    const RefTile& ref = tiles[static_cast<std::size_t>(i)];
    const schemes::CoralsNeedTable& table = tables[static_cast<std::size_t>(i)];
    ASSERT_EQ(table.begin.size(), static_cast<std::size_t>(ref.pairs) + 1);
    std::size_t p = 0;
    for (const auto& base : ref.bases) {
      for (Index t = base.t0; t < base.t1; ++t, ++p) {
        std::map<int, long> got;
        for (std::size_t q = table.begin[p]; q < table.begin[p + 1]; ++q) {
          const schemes::CoralsNeed& need = table.needs[q];
          EXPECT_TRUE(got.emplace(need.tile, need.steps).second)
              << "two entries for tile " << need.tile;
          EXPECT_GE(need.steps, 1);
          EXPECT_LE(need.steps, tiles[static_cast<std::size_t>(need.tile)].pairs);
        }
        EXPECT_LE(got.size(), max_entries);
        EXPECT_EQ(got, scan_needs(tiles, i, shape, s, base, t))
            << "tile " << i << " pair " << p;
        total += got.size();
      }
    }
  }
  if (threads > 1 && tau_act > 1) {
    EXPECT_GT(total, 0u);
  }
}

TEST(CoralsNeeds, MatchBruteForceScan) {
  for (const Coord& shape : {Coord{48}, Coord{20, 48}, Coord{12, 30, 26}}) {
    for (int s = 1; s <= 3; ++s) {
      for (int threads : {2, 3, 4, 6, 8}) {
        const schemes::CoralsParams params;
        const long tau = schemes::plan_corals(shape, threads, s, params).tau;
        expect_needs_match_scan(shape, threads, s, params, tau);
        if (tau > 1) expect_needs_match_scan(shape, threads, s, params, (tau + 1) / 2);
      }
    }
  }
}

TEST(CoralsNeeds, MatchBruteForceScanWhenXIsCut) {
  for (const Coord& counts : {Coord{2, 1, 2}, Coord{2, 2, 1}, Coord{2, 2, 2}}) {
    for (int s = 1; s <= 2; ++s) {
      schemes::CoralsParams params;
      params.force_counts = counts;
      const Coord shape{24, 12, 20};
      const int threads = static_cast<int>(counts.product());
      const long tau = schemes::plan_corals(shape, threads, s, params).tau;
      expect_needs_match_scan(shape, threads, s, params, tau);
      expect_needs_match_scan(shape, threads, s, params, std::max(1L, tau - 1));
    }
  }
}

TEST(CoralsNeeds, MatchBruteForceScanWithSmallBases) {
  struct Case {
    Index space;
    long time;
  };
  for (const Case c : {Case{2, 1}, Case{2, 2}, Case{3, 1}, Case{4, 2}}) {
    schemes::CoralsParams params;
    params.base_space = c.space;
    params.base_time = c.time;
    for (const Coord& shape : {Coord{20, 36}, Coord{10, 16, 14}}) {
      for (int threads : {3, 4}) {
        const long tau = schemes::plan_corals(shape, threads, 1, params).tau;
        expect_needs_match_scan(shape, threads, 1, params, tau);
        expect_needs_match_scan(shape, threads, 1, params, std::max(1L, tau - 1));
      }
    }
  }
}

}  // namespace
}  // namespace nustencil
