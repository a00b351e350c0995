// Tile-scheduling policy knob plus the per-run scheduling statistics.
//
// The knob picks the mode of the one task pool (sched/pool.hpp) every
// scheduled scheme runs its tiles through.  `static` is the pool without
// thieves: each thread round-robins its own tiles one unit per visit with
// blocking waits — the paper's owner-computes order; `steal` adds
// NUMA-distance-ordered work stealing on top of the owner-first
// decomposition; `steal_local` restricts victims to the thief's own NUMA
// node.  This header stays dependency-light so that schemes/scheme.hpp can
// expose the knob and the stats in RunConfig / RunResult without pulling
// the pool in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nustencil::sched {

enum class Schedule {
  Static = 0,  ///< owner computes exactly its own tiles (paper baseline)
  Steal,       ///< owner-first deques + distance-ordered work stealing
  StealLocal,  ///< stealing restricted to victims on the thief's node
};

/// Parses "static" / "steal" / "steal_local", case-insensitively; throws
/// Error on anything else.
Schedule parse_schedule(const std::string& name);

const char* schedule_name(Schedule s);

/// Per-run scheduling statistics, collected by the TaskPool and surfaced
/// through RunResult / the run report.  `enabled` stays false under the
/// static schedule (the pool has no thieves, nothing can be stolen).
struct SchedStats {
  struct Thread {
    std::uint64_t steal_attempts = 0;  ///< victim-deque probes
    std::uint64_t steals = 0;          ///< successful steals
    std::uint64_t steal_fails = 0;     ///< probes that found the deque empty
    std::uint64_t stolen_tasks = 0;    ///< tasks this thread's deque lost
    std::uint64_t stolen_updates = 0;  ///< cell updates executed on stolen tasks
  };

  bool enabled = false;
  std::string schedule = "static";
  std::vector<Thread> threads;

  std::uint64_t total_attempts() const {
    std::uint64_t n = 0;
    for (const Thread& t : threads) n += t.steal_attempts;
    return n;
  }
  std::uint64_t total_steals() const {
    std::uint64_t n = 0;
    for (const Thread& t : threads) n += t.steals;
    return n;
  }
  std::uint64_t total_fails() const {
    std::uint64_t n = 0;
    for (const Thread& t : threads) n += t.steal_fails;
    return n;
  }
  std::uint64_t total_stolen_updates() const {
    std::uint64_t n = 0;
    for (const Thread& t : threads) n += t.stolen_updates;
    return n;
  }
};

}  // namespace nustencil::sched
