// MWD and nuMWD — multicore wavefront diamond blocking (Malas et al.,
// arXiv:1410.3060) with multi-dimensional intra-tile parallelization
// (arXiv:1510.04995): one engine, NUMA-aware or not.
//
// The periodic traversal dimension z is cut at nd evenly spaced points
// c_j.  Around each cut lives a *diamond column* V_j, between the cuts an
// *interstitial column* I_j; at time step t (computing level t+1 from t)
// the columns partition the ring exactly:
//
//   V_j(t) = [c_j - s*g(t), c_j + s*g(t))        g(t) = min(t mod 2tau,
//   I_j(t) = [c_j + s*g(t), c_{j+1} - s*g(t))              2tau - t mod 2tau)
//
// so V columns breathe open into diamonds of half-height tau while the I
// columns shrink, and vice versa — the classic diamond tiling of the
// (z,t) plane, degenerate to pure diamonds when the cut gap is exactly
// 2*s*tau.  A column's 2*tau consecutive steps touch only ~(2*s*tau+2*s)
// planes, so tau is sized to keep that working set inside the *shared*
// last-level cache of one thread group.
//
// Dependencies reduce to one monotone progress counter per column
// (counter = completed steps; no global barriers): a *growing* step t
// (the column's box widened since t-1) waits until both z-neighbour
// columns have completed step t-1; a *shrinking* step reads only its own
// previous box and proceeds unconditionally.  V and I columns alternate
// growing/shrinking in windows of tau steps, and a growing column only
// ever waits on the opposite family, so the wait graph is bipartite and
// the window pipeline is deadlock-free.  The same half-open geometry
// makes the scheme write-after-read safe under double buffering: a
// shrinking writer's box edge-touches (never overlaps) the cells its
// neighbours read one step earlier, and a growing writer waits on exactly
// the columns whose reads it could clobber.
//
// Thread groups: `RunConfig::group_size` threads (auto: the largest
// divisor of the thread count no bigger than the cores sharing one LLC)
// cooperate inside each column, splitting the y/x cross-section per
// member and synchronising per time level with a group barrier —
// multi-dimensional intra-tile parallelization.  Groups pipeline across
// columns through the progress counters: the group *leaders* run one
// pool task per (column, window), in a ring-wavefront window order, and
// broadcast (column, step) commands to their members.
//
// MWD assigns column pairs to groups round-robin over a serial (node-0)
// initialisation; nuMWD assigns contiguous ranges of the ring and
// first-touches each group's home range in parallel (member cross-section
// chunk x group home range), so a group's diamonds live on pages its node
// owns, and the stealing schedules trade diamonds between groups
// NUMA-distance-first.
#pragma once

#include <string>
#include <vector>

#include "schemes/scheme.hpp"

namespace nustencil::schemes {

struct MwdPlan {
  long tau = 1;        ///< diamond half-height (steps per window)
  int columns = 1;     ///< nd cut points / V-I column pairs around the ring
  std::vector<Index> cuts;  ///< nd+1 cut positions, cuts[0]=0 .. cuts[nd]=Nz
  int group_size = 1;  ///< threads cooperating inside one column
  int groups = 1;      ///< thread count / group_size
  int gy = 1, gx = 1;  ///< cross-section split of one group (gy*gx = group_size)
  int dim_y = -1, dim_x = -1;     ///< split dimensions (-1: not split)
  std::vector<int> owner_group;   ///< column pair -> owning group
  double diamond_bytes = 0.0;     ///< working set of one full-width diamond
};

/// Computes the diamond tiling for either scheme.  `group_size` 0 picks
/// the auto rule (largest divisor of `threads` within one LLC's sharer
/// count); explicit values must divide the thread count.  `numa_aware`
/// selects contiguous (nuMWD) versus round-robin (MWD) column ownership.
/// `tau_override` != 0 replaces the cache-derived half-height (clamped to
/// the feasible Nz/(2s)).
MwdPlan plan_mwd(const Coord& shape, const core::StencilSpec& stencil,
                 const topology::MachineSpec& machine, int threads, long timesteps,
                 bool numa_aware, int group_size, long tau_override = 0);

/// Diamond windows: window 0 runs steps 0..tau (step 0 is the I columns'
/// full sweep), window w >= 1 runs steps w*tau+1 .. (w+1)*tau, the last
/// one clipped to the run.
long mwd_windows(long tau, long timesteps);

/// nuMWD (`numa_aware`: parallel first touch of group home ranges and
/// contiguous column ownership) or MWD.  `tau_override` != 0 replaces the
/// cache-derived diamond half-height (bench/ablation_group_size).
class MwdScheme : public Scheme {
 public:
  explicit MwdScheme(bool numa_aware, long tau_override = 0)
      : numa_aware_(numa_aware), tau_override_(tau_override) {}

  std::string name() const override { return numa_aware_ ? "nuMWD" : "MWD"; }
  bool numa_aware() const override { return numa_aware_; }
  RunResult run(core::Problem& problem, const RunConfig& config) const override;
  TrafficEstimate estimate_traffic(const topology::MachineSpec& machine, const Coord& shape,
                                   const core::StencilSpec& stencil, int threads,
                                   long timesteps) const override;

 private:
  bool numa_aware_;
  long tau_override_;
};

}  // namespace nustencil::schemes
