// Shared scaffolding for scheme implementations: instrumentation setup,
// the worker team, per-thread executors, the task phases every scheduled
// scheme runs its tiles through, boundary initialisation, and result
// assembly.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/timer.hpp"
#include "core/executor.hpp"
#include "hwc/group.hpp"
#include "core/reference.hpp"
#include "numa/page_table.hpp"
#include "numa/traffic.hpp"
#include "prof/counter_shard.hpp"
#include "sched/pool.hpp"
#include "schemes/scheme.hpp"
#include "thread/abort.hpp"
#include "thread/barrier.hpp"
#include "thread/spinflag.hpp"
#include "thread/team.hpp"

namespace nustencil::schemes {

/// What one task step runs with: the executing worker, its executor and
/// span recorder, and the dependency test.  A step writes its tile work
/// once against this context, for every schedule.
class TaskContext {
 public:
  int tid() const { return tid_; }
  /// The task sits on another worker's deque (only under stealing).
  bool stolen() const { return stolen_; }
  core::Executor& exec() const { return *exec_; }
  trace::ThreadRecorder* rec() const { return rec_; }

  /// Whether `counter` has reached `need`.  Under the static schedule
  /// this waits (a spin-wait span naming `owner`) and returns true; under
  /// stealing it only probes, and a step that sees false returns
  /// Progress or Blocked so the pool can run something else.
  bool ready(const threading::ProgressCounter& counter, long need,
             std::int32_t owner) const {
    if (!blocking_) return counter.current() >= need;
    counter.wait_for(need, abort_, rec_, owner);
    return true;
  }

 private:
  friend class RunSupport;
  int tid_ = 0;
  bool stolen_ = false;
  bool blocking_ = true;
  core::Executor* exec_ = nullptr;
  trace::ThreadRecorder* rec_ = nullptr;
  const threading::AbortToken* abort_ = nullptr;
};

/// Advances task `task` by one unit; see sched::StepResult.
using TaskStep = std::function<sched::StepResult(int task, const TaskContext& ctx)>;

/// The machine used for instrumentation when RunConfig::machine is null.
const topology::MachineSpec& default_machine();

/// The run support is also the run's per-span counter sampler: a span
/// snapshot is the thread's live-shard row plus its measured hardware
/// counters.
class RunSupport : private trace::CounterSampler {
 public:
  RunSupport(core::Problem& problem, const RunConfig& config);

  /// Detaches the per-span counter sampler from the (caller-owned) trace
  /// so a reused Trace never dereferences a dead run.
  ~RunSupport() override;

  const topology::MachineSpec& machine() const { return *machine_; }

  /// Abort token shared by all spin-waits/barriers of this run.
  const threading::AbortToken& abort() const { return abort_; }

  /// Runs body(tid) on the team; a throwing worker triggers the abort
  /// token so every other worker unwinds from its spin-waits.  The root
  /// cause — the exception of the worker that triggered the token — is
  /// rethrown here, never a peer's "another worker failed first".
  void run_workers(const std::function<void(int)>& body);

  /// Sets the run's tasks: `ntasks` of them, task i on owner_of(i)'s
  /// deque in ascending order, in layers of `layer_size` (see
  /// sched::TaskPool::reset).  Call before the workers start; every phase
  /// runs all of them.
  void set_tasks(int ntasks, const std::function<int(int)>& owner_of, int layer_size = 0);

  /// One phase of the run's tasks, called by every worker: drain_tasks,
  /// then a barrier whose releasing arrival runs `prepare` (when set: the
  /// place to reset per-phase state the tasks share) and re-arms the pool
  /// for the next phase.  A worker's idle time at the end of a phase is
  /// barrier wait.
  void run_tasks(int tid, const TaskStep& step,
                 const std::function<void()>& prepare = {});

  /// Drains the armed pool on worker `tid` (see sched::TaskPool::run).
  /// Updates a thief computes on its own executor are credited to it as
  /// stolen updates.
  void drain_tasks(int tid, const TaskStep& step);

  /// Per-thread executor (one per worker; never shared between threads).
  core::Executor& executor(int tid) { return *executors_[static_cast<std::size_t>(tid)]; }

  /// Span recorder of worker `tid`; nullptr when neither RunConfig::trace
  /// nor collect_phase_metrics is set (every hook then costs one branch).
  trace::ThreadRecorder* recorder(int tid) {
    return trace_ ? trace_->thread(tid) : nullptr;
  }

  /// Advances the live layer indicator (monotonic max; any thread may
  /// call); a no-op when nothing observes the run live.
  void set_layer(long layer) { if (counters_) counters_->set_layer(layer); }

  /// NUMA node of worker `tid` under the virtual (fill-socket-first)
  /// placement of the instrumented machine; 0 when not instrumenting.
  int node_of_thread(int tid) const;

  /// Task pool of this run (static or stealing).  finish() folds its
  /// stats into the result.
  sched::TaskPool* pool() { return pool_.get(); }

  /// Serial allocation/initialisation by "thread 0": fills the whole
  /// problem and first-touches every page on node 0 — exactly what a
  /// NUMA-ignorant scheme gets from the kernel.
  void serial_init();

  /// Freezes Dirichlet boundary cells (copies them into the second buffer
  /// and marks them in the dependency checker).  Call after the data has
  /// been initialised.
  void finalize_boundary();

  /// Assembles the RunResult (collects traffic, verifies the dependency
  /// checker reached `timesteps` everywhere) and adds every executor's
  /// KernelCounts to RunConfig::metrics.
  RunResult finish(const std::string& scheme_name, double seconds);

 private:
  void sample(int tid, trace::CounterSet& out) const override;

  core::Problem* problem_;
  const RunConfig* config_;
  const topology::MachineSpec* machine_;
  std::optional<trace::Trace> own_trace_;  ///< metrics-only fallback recorder
  trace::Trace* trace_ = nullptr;
  std::optional<numa::PageTable> pages_;
  std::optional<numa::VirtualTopology> topo_;
  std::optional<numa::TrafficRecorder> recorder_;
  std::optional<prof::CounterShard> counters_;  ///< live counters, if observed
  std::optional<hwc::ThreadSet> hw_;  ///< per-thread perf counter groups
  std::optional<core::DependencyChecker> checker_;
  std::vector<std::unique_ptr<core::Executor>> executors_;
  std::unique_ptr<threading::Team> team_;
  std::unique_ptr<sched::TaskPool> pool_;
  std::unique_ptr<threading::Barrier> task_barrier_;  ///< fences task phases
  threading::AbortToken abort_;
};

}  // namespace nustencil::schemes
