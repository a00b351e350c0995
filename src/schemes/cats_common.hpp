// CATS and nuCATS (paper Section II): one engine, NUMA-aware or not.
//
// CATS — cache accurate time skewing [Strzodka, Shaheen, Pajak, Seidel,
// ICPP'11] — is the cache-aware predecessor of the paper's nuCATS: large
// space-time tiles with a cache-sized wavefront cross-section.
//
// Both schemes divide the domain into tiles along the y dimension (and,
// when nuCATS needs to double the tile count, additionally halve the
// wavefront-traversal dimension z).  Every tile is traversed by a
// time-skewed wavefront along z: at sweep position p, the plane
// z = p - k*s is updated from time tb+k to tb+k+1 for every k in the
// temporal chunk [tb, tb+Tc).  The moving wavefront spans ~Tc*s planes of
// one tile cross-section (Nx x Wy) and is sized to fit the last-level
// cache — that is CATS' "carefully chosen cross-section".
//
// Tiles advance position by position, synchronised by per-tile progress
// counters.  At position p a tile visits only the steps k whose plane
// z = p - k*s lies inside it (most (p, k) states of a deep chunk update
// no plane) and waits, before its first such step:
//   * for its y-neighbours to have finished position p-s entirely,
//   * in a z-split, the upper segment for the lower one to have finished
//     position p-s-1;
// and, before step k, the lower segment for the upper one to have
// finished (p, k-1).  A tile publishes one code per finished position,
// plus per-step codes only in a z-split (the lower segment reads them).
// All waits target lexicographically earlier (p, k) states, so the
// pipeline is deadlock-free.
//
// CATS assigns tiles to threads round-robin and initialises data serially
// (NUMA-ignorant); nuCATS decomposes the domain into per-thread subdomains
// (parallel first touch) and assigns each tile to the thread owning it,
// adjusting the tile count to divide the thread count (Section II).  When
// the thread count exceeds the number of cache-sized tiles, the tile count
// stops shrinking at nthreads/2 and the traversal dimension is halved
// instead.
#pragma once

#include <vector>

#include "schemes/scheme.hpp"

namespace nustencil::schemes {

struct CatsPlan {
  long chunk = 1;       ///< temporal chunk depth Tc
  Index wy = 1;         ///< tile width along y
  int tiles_y = 1;      ///< tiles along y
  int z_segments = 1;   ///< 1 or 2 segments along the traversal dimension
  std::vector<core::Box> tiles;  ///< index = zseg * tiles_y + ty
  std::vector<int> owner;        ///< tile -> thread

  int num_tiles() const { return tiles_y * z_segments; }
};

/// Fewest cells a stealing refinement leaves in one tile plane, i.e. in
/// one update_box call.  The ledger measures a fixed cost of about 500 ns
/// per call (core.tile_overhead_ns, 4-core Xeon VM), comparable to the
/// kernel time of a few hundred cells.  On 67x61x59 (250 steps, 4
/// threads) 24 tiles of 2-3 rows (~200-cell planes) ran nuCATS ~15%
/// slower under stealing than the 8 tiles of 8 rows this floor keeps.
inline constexpr Index kCatsMinStealPlaneCells = 1024;

/// Computes the tiling for either scheme. `numa_aware` selects the nuCATS
/// tile-count adjustment + ownership assignment versus CATS round-robin.
/// A stealing `schedule` refines the y-tiling by an integer multiplier
/// (up to 4) so thieves can take fractions of a subdomain; the multiplier
/// keeps every thread's owned y-range — and hence the nuCATS first-touch
/// placement — identical to the Static plan, and is reduced (down to 1)
/// while the minimum tile width, kCatsMinStealPlaneCells or a z-segmented
/// plan forbids refining.  The run and --explain both plan through here.
CatsPlan plan_cats(const core::Box& updatable, const core::StencilSpec& stencil,
                   const topology::MachineSpec& machine, int threads, long timesteps,
                   bool numa_aware, sched::Schedule schedule = sched::Schedule::Static);

/// nuCATS (`numa_aware`) or CATS: `numa_aware` controls init and
/// assignment.  Time skewing along a periodic axis has a cyclic
/// dependence seam, so both run under a Dirichlet z boundary.
class CatsScheme : public Scheme {
 public:
  explicit CatsScheme(bool numa_aware) : numa_aware_(numa_aware) {}

  std::string name() const override { return numa_aware_ ? "nuCATS" : "CATS"; }
  bool numa_aware() const override { return numa_aware_; }
  core::Boundary default_boundary() const override {
    core::Boundary bc;
    bc[2] = core::BoundaryKind::Dirichlet;
    return bc;
  }
  RunResult run(core::Problem& problem, const RunConfig& config) const override;
  TrafficEstimate estimate_traffic(const topology::MachineSpec& machine, const Coord& shape,
                                   const core::StencilSpec& stencil, int threads,
                                   long timesteps) const override;

 private:
  bool numa_aware_;
};

}  // namespace nustencil::schemes
