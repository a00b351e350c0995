// The common interface of all iterative stencil schemes.
//
// A Scheme executes `timesteps` Jacobi updates of a Problem with a given
// thread count, really — threads, barriers and spin-flags all run — and
// optionally instrumented: a first-touch page table plus traffic recorder
// measure the data-to-core affinity the performance model needs, and a
// dependency checker validates the tiling order.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "cachesim/shared.hpp"
#include "core/boundary.hpp"
#include "hwc/group.hpp"
#include "core/field.hpp"
#include "core/kernels.hpp"
#include "metrics/registry.hpp"
#include "numa/traffic.hpp"
#include "prof/attribution.hpp"
#include "sched/schedule.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace nustencil::prof {
class ProgressMeter;
}

namespace nustencil::schemes {

struct RunConfig {
  int num_threads = 1;
  long timesteps = 1;
  core::Boundary boundary = core::Boundary::periodic();

  /// Measure first-touch placement and local/remote traffic against the
  /// virtual topology of `machine`.
  bool instrument = false;

  /// Validate the dependency order of every single cell update (slow).
  bool check_dependencies = false;

  /// Row-kernel variant selection (see core/kernels.hpp).  Auto picks
  /// the widest ISA the host supports with a tap-specialized kernel.
  core::KernelPolicy kernel = core::KernelPolicy::Auto;

  /// Pin worker threads to host cores (harmless no-op on small hosts).
  bool pin_threads = false;

  /// Tile scheduling policy, the mode of the run's task pool.  Static
  /// runs the paper's owner-computes order (each thread round-robins its
  /// own tiles, waits block); Steal adds NUMA-distance-ordered work
  /// stealing over owner-first deques; StealLocal restricts victims to
  /// the thief's own node (sched/).
  sched::Schedule schedule = sched::Schedule::Static;

  /// Thread-group size of the MWD/nuMWD diamond family: how many threads
  /// cooperate inside one diamond, splitting its cross-section per member
  /// (multi-dimensional intra-tile parallelization).  0 = auto (largest
  /// divisor of num_threads within one LLC's sharer count); explicit
  /// values must divide num_threads.  Ignored by the other schemes.
  int group_size = 0;

  /// Optional trace-driven cache simulation: when set, the executors feed
  /// their (row-granular) access stream into this hierarchy with real
  /// data addresses; thread tid maps to simulated core tid.  Use small
  /// domains — every access is simulated per cache line.
  cachesim::SharedHierarchy* cache_sim = nullptr;

  /// Machine whose topology drives thread->node placement when
  /// instrumenting; defaults to xeonX7550() when null.
  const topology::MachineSpec* machine = nullptr;

  /// Thread-to-node placement policy for instrumentation (the paper pins
  /// compactly; scatter is for the pinning ablation).
  numa::PinPolicy pin_policy = numa::PinPolicy::Compact;

  /// Page size of the instrumented first-touch page table.  Measurement
  /// runs on scaled-down domains shrink this proportionally so that the
  /// page-to-row ratio (and hence the measured locality) matches the
  /// paper-scale domain under real 4 KiB pages.
  Index page_bytes = 4096;

  /// Optional space-time execution trace: when set, the run begins a new
  /// recording on it (begin_run) and every executor sweep, barrier wait,
  /// spin-flag wait, first touch and layer boundary feeds it typed spans.
  /// Null (the default) compiles every hook down to one branch.
  trace::Trace* trace = nullptr;

  /// Aggregate per-thread, per-phase wall-time totals into
  /// RunResult.phases even without a full event trace (uses an internal
  /// metrics-only recorder when `trace` is null).
  bool collect_phase_metrics = false;

  /// Optional metrics registry: when set, the run adds its executors'
  /// kernel-dispatch counts (tiles, fast rows per variant, slow boundary
  /// cells, tile-size histogram) to it once, after the team has joined.
  metrics::Registry* metrics = nullptr;

  /// Per-span performance attribution: attach counter deltas (updates,
  /// traffic bytes, simulated cache hits/misses) to every Tile/Init span
  /// of the trace and summarise them into RunResult.prof.  Requires
  /// `trace`; the counters available depend on which instrumentation
  /// sources (`instrument`, `cache_sim`) the run enables.
  bool profile_spans = false;

  /// Hardware performance counters (src/hwc/): Off (the default) costs
  /// nothing — no syscalls, no probe; Auto measures what the host's PMU
  /// offers and records the degradation reason when it offers nothing;
  /// On is Auto with a loud warning expected from the caller when the
  /// probe degrades.  Measured per-span deltas additionally require a
  /// trace (they ride the per-span counter sampler).
  hwc::Mode hw_mode = hwc::Mode::Off;

  /// Events to count; empty = hwc::default_events() (cycles,
  /// instructions, cache-references, cache-misses, stalled-cycles).
  std::vector<hwc::Event> hw_events;

  /// Counter syscall backend override (tests inject a FakeBackend);
  /// null uses hwc::real_backend().
  hwc::SyscallBackend* hw_backend = nullptr;

  /// Optional --progress heartbeat: when set, the run starts the meter's
  /// thread on its live counter shard at construction and stops it, with
  /// the closing line, when the run finishes.  The caller owns the
  /// meter; null (the default) constructs no shard and no thread, and
  /// the executors' per-tile publish stays one null-pointer branch.
  prof::ProgressMeter* progress = nullptr;

  unsigned seed = 42;
};

struct RunResult {
  std::string scheme;
  int threads = 0;
  long timesteps = 0;
  double seconds = 0.0;
  Index updates = 0;
  numa::TrafficStats traffic;           ///< empty unless instrumented
  std::map<std::string, double> details;  ///< scheme-specific parameters

  /// Work-stealing statistics; `sched.enabled` stays false under the
  /// static schedule (a pool without thieves steals nothing).
  sched::SchedStats sched;

  /// Per-thread, per-phase wall-time totals (compute, barrier wait, spin
  /// wait, init) plus the load-imbalance ratio; `phases.enabled` is false
  /// unless RunConfig::trace or collect_phase_metrics was set.
  trace::PhaseBreakdown phases;

  /// Per-span attribution summary (exact counter totals, top-K
  /// stragglers with verdicts, roofline scatter); `prof.enabled` is false
  /// unless RunConfig::profile_spans was set with a trace.
  prof::ProfSummary prof;

  /// Hardware counter measurements (per-thread raw totals, attributed
  /// span sums, scaling factors, availability and degradation status);
  /// `hw.enabled` stays false when RunConfig::hw_mode is Off.
  hwc::HwRunStats hw;

  double gupdates_per_second() const {
    return seconds > 0 ? static_cast<double>(updates) / seconds * 1e-9 : 0.0;
  }
};

/// Analytic estimate of main-memory traffic, in doubles per cell update,
/// used by the performance model (the shapes of Figs. 4-22 follow from
/// this together with the measured locality).
struct TrafficEstimate {
  double mem_doubles_per_update = 0.0;  ///< to/from main memory
  double llc_doubles_per_update = 0.0;  ///< served by the last-level cache
};

class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string name() const = 0;

  /// True when the scheme observes the data-to-core affinity requirement.
  virtual bool numa_aware() const = 0;

  /// The boundary the scheme runs under by default: periodic, except for
  /// the CATS family's Dirichlet z (see core/boundary.hpp).  Callers that
  /// do not choose a boundary themselves set RunConfig::boundary to it.
  virtual core::Boundary default_boundary() const { return core::Boundary::periodic(); }

  /// Executes the scheme.  The problem must be freshly constructed and NOT
  /// initialised: every scheme performs its own allocation/initialisation
  /// phase (serial for NUMA-ignorant schemes, parallel first-touch for
  /// NUMA-aware ones).  After the call, problem.buffer(timesteps) holds
  /// the values of time step `timesteps`.
  virtual RunResult run(core::Problem& problem, const RunConfig& config) const = 0;

  /// Analytic memory traffic for the performance model.
  virtual TrafficEstimate estimate_traffic(const topology::MachineSpec& machine,
                                           const Coord& shape,
                                           const core::StencilSpec& stencil,
                                           int threads, long timesteps) const = 0;
};

/// All schemes of the paper's evaluation, by figure legend name.
std::unique_ptr<Scheme> make_scheme(const std::string& name);

/// Legend names accepted by make_scheme.
const std::vector<std::string>& scheme_names();

}  // namespace nustencil::schemes
