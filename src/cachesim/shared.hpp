// Thread-safe wrapper around Hierarchy for trace-driven simulation of
// multi-threaded scheme executions.
//
// The executor feeds its (row-granular) access stream here when a run is
// configured with RunConfig::cache_sim.  A single mutex serialises the
// simulated accesses — acceptable because trace-driven runs use small
// domains by design; the interleaving of rows from different threads is
// then a legal (if arbitrary) schedule of the real execution.
#pragma once

#include <mutex>

#include "cachesim/hierarchy.hpp"

namespace nustencil::cachesim {

class SharedHierarchy {
 public:
  SharedHierarchy(const topology::MachineSpec& machine, int num_cores)
      : hierarchy_(machine, num_cores) {}

  void access(int core, Addr addr, Index bytes, bool write) {
    std::lock_guard<std::mutex> lock(mutex_);
    hierarchy_.access(core, addr, bytes, write);
  }

  HierarchyTraffic traffic() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hierarchy_.traffic();
  }

  Index line_bytes() const { return hierarchy_.line_bytes(); }

  /// Per-core attribution counters of `core` (see Hierarchy::core_traffic).
  /// Deliberately lock-free: every access by core c is issued by thread c
  /// (executors pass their own tid as the core), so the row is
  /// single-writer and thread c may read it without taking the mutex —
  /// its executor does, to publish the run's live prof::CounterShard
  /// once per tile.  Any other thread may read it only after the team
  /// has joined.
  const std::vector<LevelTraffic>& core_traffic(int core) const {
    return hierarchy_.core_traffic(core);
  }

 private:
  mutable std::mutex mutex_;
  Hierarchy hierarchy_;
};

}  // namespace nustencil::cachesim
