// nuCORALS — the paper's NUMA-aware, cache-oblivious scheme (Section III).
//
// Three phases per run: (I) NUMA-aware spatial decomposition with
// first-touch affinity, (II) temporal tiling into layers of height
// tau = b/(2s) of right-skewed thread parallelograms, (III) cache-
// oblivious recursive subdivision of a left-skewed root parallelogram per
// thread, with local synchronisation at thread boundaries (one progress
// counter per thread tile, waited on through a per-layer-height need
// table) and a global barrier between layers.  See
// schemes/corals_common.hpp.
#pragma once

#include "schemes/corals_common.hpp"
#include "schemes/scheme.hpp"

namespace nustencil::schemes {

class NuCoralsScheme : public Scheme {
 public:
  /// `tau_override` != 0 replaces the paper's default tau = b/(2s)
  /// (used by the ablation bench exploring the affinity/locality trade).
  explicit NuCoralsScheme(long tau_override = 0) : tau_override_(tau_override) {}

  std::string name() const override { return "nuCORALS"; }
  bool numa_aware() const override { return true; }
  RunResult run(core::Problem& problem, const RunConfig& config) const override;
  TrafficEstimate estimate_traffic(const topology::MachineSpec& machine, const Coord& shape,
                                   const core::StencilSpec& stencil, int threads,
                                   long timesteps) const override;

 private:
  long tau_override_;
};

}  // namespace nustencil::schemes
