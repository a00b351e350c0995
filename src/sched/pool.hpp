// NUMA-affine work-stealing task pool with owner-first deques.
//
// Every worker drains a deque of its *own* subdomain's tiles from the
// front — preserving the owner-computes order the static schedules use —
// and only when that deque is empty steals from victims ordered by
// simulated NUMA distance (same node first, then nearest nodes under the
// machine's |node_a - node_b| metric).  A thief takes from the *far end*
// of the victim's deque: the victim works the front, so the back holds
// the tiles it would reach last — the ones least likely to have warm
// pages in the victim's caches and the cheapest to give away.
//
// Temporal-blocking dependencies are honoured cooperatively: a task's
// step callback checks its predecessors' progress counters
// (thread/spinflag.hpp semantics: non-blocking `current() >= need`
// probes of the same monotone epochs the static paths spin-wait on) and
// returns Blocked instead of spinning.  A blocked task goes back to the
// *owner's* deque, so stalled work never pins a thief, and a task lives
// in exactly one deque (or one executing thread) at a time — which is
// what keeps its progress counter single-writer and monotone.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "numa/traffic.hpp"
#include "sched/schedule.hpp"
#include "thread/abort.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace nustencil::sched {

/// Verdict of one task step.  Done retires the task; Yield re-enqueues it
/// on the owner after partial progress (cooperative preemption point);
/// Blocked re-enqueues it because a dependency predecessor has not
/// retired far enough yet (the pool backs off before retrying).
enum class StepResult { Done, Yield, Blocked };

/// NUMA node of each worker under the same virtual placement the traffic
/// instrumentation uses (numa::VirtualTopology), computed directly from
/// the machine so scheduling stays NUMA-aware even when instrumentation
/// is off.  Thread counts beyond the machine's cores wrap around.
std::vector<int> thread_nodes(const topology::MachineSpec& machine,
                              numa::PinPolicy policy, int num_threads);

class TaskPool {
 public:
  /// `thread_node[tid]` places worker tid for the distance-ordered victim
  /// ranking; Schedule::StealLocal drops every victim on a foreign node.
  TaskPool(int num_threads, std::vector<int> thread_node, Schedule schedule);

  /// Arms the pool with `num_tasks` tasks, task i on owner_of(i)'s deque
  /// in ascending order.  Single-threaded: callers fence with a barrier
  /// (every worker must have left run() of the previous phase).
  void reset(int num_tasks, const std::function<int(int)>& owner_of);

  /// step(task, tid, stolen) advances one task; see StepResult.
  using Step = std::function<StepResult(int task, int tid, bool stolen)>;

  /// Worker loop of thread `tid`: drains the own deque front-first, then
  /// steals along the victim order, until every task of the current phase
  /// has retired.  Re-entrant per phase (reset between phases).
  void run(int tid, const Step& step, const threading::AbortToken* abort,
           trace::ThreadRecorder* rec);

  /// Credit `updates` cell updates to work thread `tid` executed on
  /// stolen tasks (called by the step callback; tid-sharded, no locking).
  void add_stolen_updates(int tid, std::uint64_t updates);

  /// Victim ranking of `tid` (exposed for tests and --explain).
  const std::vector<int>& victim_order(int tid) const {
    return victims_[static_cast<std::size_t>(tid)];
  }

  /// Cumulative statistics over all phases; call after workers joined.
  SchedStats stats() const;

  /// Successful steals so far, summed over the workers.  Safe to call
  /// from any thread while they run (the telemetry sampler does).
  std::uint64_t steals_so_far() const;

 private:
  /// One spinlocked deque per worker, each on its own cache line.  Tile
  /// granularity is coarse (a task is a whole tile or parallelogram), so
  /// a plain lock costs noise compared to lock-free Chase-Lev while
  /// keeping both ends safely accessible.
  struct alignas(kCacheLineBytes) WorkDeque {
    std::atomic<bool> locked{false};
    std::deque<int> tasks;

    void lock() {
      while (locked.exchange(true, std::memory_order_acquire))
        std::this_thread::yield();
    }
    void unlock() { locked.store(false, std::memory_order_release); }
  };

  struct alignas(kCacheLineBytes) PerThread {
    /// Written by the owning thread only; stats() fills in `steals` and
    /// `stolen_tasks` from the two atomics below.
    SchedStats::Thread counts;
    /// Successful steals: single-writer (the owner), but read live by
    /// steals_so_far(), so a relaxed atomic.
    std::atomic<std::uint64_t> steals{0};
    /// Tasks lost to thieves: credited to the *victim's* slot by the
    /// stealing thread, so it takes an atomic add.
    std::atomic<std::uint64_t> tasks_lost{0};
  };

  int pop_front(int tid);
  int steal_back(int victim);
  void push_back(int tid, int task);

  int num_threads_;
  Schedule schedule_;
  std::vector<int> node_;
  std::vector<std::vector<int>> victims_;
  std::vector<WorkDeque> deques_;
  std::vector<int> owner_;  ///< task -> owning thread (current phase)
  std::vector<PerThread> counts_;
  std::atomic<int> remaining_{0};
};

}  // namespace nustencil::sched
