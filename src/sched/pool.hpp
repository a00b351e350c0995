// NUMA-affine task pool with owner-first work lists: every scheduled
// scheme runs its tiles through it, static or stealing.
//
// Every worker works through its *own* subdomain's tiles first, in
// ascending order.  A task's step callback advances it by one unit (a
// whole tile, a sweep position, a base parallelogram, a diamond column's
// window) and says whether it made progress, finished, or found a
// dependency unmet.
//
//  * Schedule::Static is the pool without thieves.  Each visit advances a
//    task by one unit with blocking waits, and an unfinished task goes to
//    the back of its owner's list, so a worker round-robins its tasks
//    unit by unit — the owner-computes order of the paper's schemes.  A
//    worker leaves run() as soon as its own list is empty; its idle time
//    at the end of a phase is the caller's barrier wait.
//  * The stealing schedules keep each worker's tasks on a deque it drains
//    from the front, stepping a task greedily while it makes progress.
//    An idle worker steals from victims ordered by simulated NUMA distance
//    (same node first, then nearest nodes under |node_a - node_b|), taking
//    the *far end* of the victim's deque: the victim works the front, so
//    the back holds the tiles it would reach last — the ones least likely
//    to be warm in its caches and the cheapest to give away.  Tasks in
//    layers keep each deque sorted by layer; the far end is then the back
//    of the victim's front layer, the rest wait on it.
//
// Temporal-blocking dependencies are honoured cooperatively under
// stealing: a step probes its predecessors' progress counters
// (thread/spinflag.hpp: non-blocking `current() >= need` tests of the same
// monotone epochs the static waits block on) and returns Blocked instead
// of spinning.  A blocked task goes back to the *owner's* deque, behind
// the rest of its layer, so stalled work never pins a thief and is
// re-probed before any later layer, and a task lives in exactly one deque
// (or one executing thread) at a time — which is what keeps its progress
// counter single-writer and monotone.
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

/// Verdict of one task step.  Done retires the task; Progress means the
/// step advanced it and more remains; Blocked means it advanced nothing
/// because a dependency predecessor has not got far enough yet (never
/// under Schedule::Static, whose waits block).
enum class StepResult { Done, Progress, Blocked };

/// NUMA node of each worker under the same virtual placement the traffic
/// instrumentation uses (numa::VirtualTopology), computed directly from
/// the machine so scheduling stays NUMA-aware even when instrumentation
/// is off.  Thread counts beyond the machine's cores wrap around.
std::vector<int> thread_nodes(const topology::MachineSpec& machine,
                              numa::PinPolicy policy, int num_threads);

class TaskPool {
 public:
  /// `thread_node[tid]` places worker tid for the distance-ordered victim
  /// ranking; Schedule::StealLocal drops every victim on a foreign node
  /// and Schedule::Static every victim.
  TaskPool(int num_threads, std::vector<int> thread_node, Schedule schedule);

  /// Arms the pool with `num_tasks` tasks, task i on owner_of(i)'s list
  /// in ascending order, in layers of `layer_size` ids (0: one layer).
  /// Single-threaded: callers fence with a barrier (every worker must
  /// have left run() of the previous phase).
  void reset(int num_tasks, const std::function<int(int)>& owner_of, int layer_size = 0);

  /// Arms the pool again with the tasks of the last reset, on the same
  /// owners (a no-op under Schedule::Static, whose workers re-arm their
  /// own lists in run()).  Same fencing rule as reset().
  void rearm();

  /// step(task, tid, stolen) advances one task; see StepResult.
  using Step = std::function<StepResult(int task, int tid, bool stolen)>;

  /// Worker loop of thread `tid`.  Static: one step per visit, an
  /// unfinished task back to the end of the own list, until that list is
  /// empty.  Stealing: steps each task while it makes progress, drains
  /// the own deque front-first, then steals along the victim order, until
  /// every task of the current phase has retired.  A task that stops on
  /// Blocked goes back to its owner's deque, behind the rest of its
  /// layer; the pool backs off first when the visit made no progress at
  /// all.  Re-entrant per phase (rearm between phases).
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
  /// Disabled (and empty) under Schedule::Static: nothing can be stolen.
  SchedStats stats() const;

 private:
  /// One spinlocked deque per worker (stealing schedules), each on its
  /// own cache line.  Tile granularity is coarse (a task is a whole tile
  /// or parallelogram), so a plain lock costs noise compared to lock-free
  /// Chase-Lev while keeping both ends safely accessible.
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
    /// Written by the owning thread only; stats() fills in
    /// `stolen_tasks` from the atomic below.
    SchedStats::Thread counts;
    /// Tasks lost to thieves: credited to the *victim's* slot by the
    /// stealing thread, so it takes an atomic add.
    std::atomic<std::uint64_t> tasks_lost{0};
    /// Static schedule: the worker's own tasks in ascending order, and
    /// the round-robin list run() works down (touched by the owner only,
    /// so a phase needs no re-arming and no lock).
    std::vector<int> own;
    std::vector<int> live;
  };

  /// First position of `tasks` (sorted by layer) past `task`'s layer.
  std::deque<int>::iterator layer_end(std::deque<int>& tasks, int task) const;
  /// Front of `tid`'s deque, or a thief's back of its front layer; -1 if empty.
  int take(int tid, bool far_end);
  void requeue(int tid, int task);

  int num_threads_;
  Schedule schedule_;
  std::vector<int> node_;
  std::vector<std::vector<int>> victims_;
  std::vector<WorkDeque> deques_;
  std::vector<int> owner_;  ///< task -> owning thread
  int layer_size_ = 0;
  std::vector<PerThread> counts_;
  std::atomic<int> remaining_{0};
};

}  // namespace nustencil::sched
