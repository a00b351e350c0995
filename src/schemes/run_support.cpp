#include "schemes/run_support.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"
#include "hwc/validate.hpp"
#include "metrics/registry.hpp"
#include "prof/progress.hpp"

namespace nustencil::schemes {

const topology::MachineSpec& default_machine() {
  static const topology::MachineSpec machine = topology::xeonX7550();
  return machine;
}

RunSupport::RunSupport(core::Problem& problem, const RunConfig& config)
    : problem_(&problem), config_(&config) {
  machine_ = config.machine ? config.machine : &default_machine();
  NUSTENCIL_CHECK(config.num_threads >= 1, "RunConfig: need at least one thread");
  NUSTENCIL_CHECK(config.timesteps >= 1, "RunConfig: need at least one time step");
  if (config.instrument) {
    NUSTENCIL_CHECK(config.num_threads <= machine_->cores(),
                    "RunConfig: more threads than cores on the instrumented machine");
    pages_.emplace(config.page_bytes);
    topo_.emplace(*machine_, config.pin_policy);
    recorder_.emplace(*pages_, *topo_, config.num_threads);
    problem.attach(*pages_);
    // Locality time series: ~32 samples per thread over the whole run.
    const Index per_thread =
        problem.volume() * config.timesteps / config.num_threads;
    recorder_->set_sample_window(
        static_cast<std::uint64_t>(std::max<Index>(1, per_thread / 32)));
  }
  if (config.check_dependencies) checker_.emplace(problem.volume());

  if (config.trace) {
    trace_ = config.trace;
  } else if (config.collect_phase_metrics) {
    own_trace_.emplace(/*events_per_thread=*/0);  // totals only, no events
    trace_ = &*own_trace_;
  }
  if (trace_) trace_->begin_run(config.num_threads);

  if (config.hw_mode != hwc::Mode::Off) {
    hwc::SyscallBackend& backend =
        config.hw_backend ? *config.hw_backend : hwc::real_backend();
    hw_.emplace(backend, config.hw_mode, config.hw_events, config.num_threads);
  }

  // Per-span sampling is wanted for explicit profiling and whenever
  // hardware counters measure into a trace (measured deltas ride the
  // same sampler path as the simulated ones).  The live counter shard
  // exists only when it has a reader: span sampling or the heartbeat.
  const bool span_sampling =
      trace_ && (config.profile_spans || (hw_ && hw_->active()));
  if (span_sampling || config.progress) {
    const int cache_levels =
        config.cache_sim
            ? static_cast<int>(config.cache_sim->core_traffic(0).size())
            : 0;
    counters_.emplace(config.num_threads, cache_levels);
  }

  core::Instrumentation instr;
  instr.pages = pages_ ? &*pages_ : nullptr;
  instr.traffic = recorder_ ? &*recorder_ : nullptr;
  instr.checker = checker_ ? &*checker_ : nullptr;
  instr.cache_sim = config.cache_sim;
  instr.counters = counters_ ? &*counters_ : nullptr;
  for (int tid = 0; tid < config.num_threads; ++tid) {
    executors_.push_back(
        std::make_unique<core::Executor>(problem, instr, config.kernel));
    executors_.back()->set_trace(recorder(tid));
  }

  if (span_sampling) {
    trace_->set_sampler(this);
    trace_->set_flops_per_update(problem.stencil().flops());
  }

  team_ = std::make_unique<threading::Team>(config.num_threads, config.pin_threads);

  // Placed with the same machine/pin-policy node map the traffic
  // instrumentation uses, so victim ordering is NUMA-aware even when
  // instrumentation is off.
  pool_ = std::make_unique<sched::TaskPool>(
      config.num_threads,
      sched::thread_nodes(*machine_, config.pin_policy, config.num_threads),
      config.schedule);
  task_barrier_ = std::make_unique<threading::Barrier>(config.num_threads);

  // Started last: a throw earlier in this constructor skips the
  // destructor that would stop the thread.
  if (config.progress) config.progress->start(*counters_);
}

RunSupport::~RunSupport() {
  // The heartbeat must stop reading before the shard it points into dies
  // (a no-op after finish()).
  if (config_->progress) config_->progress->stop(/*final_line=*/false);
  if (trace_ && trace_->sampler() == this) trace_->set_sampler(nullptr);
}

void RunSupport::sample(int tid, trace::CounterSet& out) const {
  out = trace::CounterSet{};
  counters_->read(tid, out);
  if (hw_) hw_->sample(tid, out);
}

void RunSupport::run_workers(const std::function<void(int)>& body) {
  // Written once, by the worker whose failure triggered the token; the
  // team's join orders it before the read below.
  std::exception_ptr cause;
  try {
    team_->run([&](int tid) {
      // Counters stay enabled for the whole parallel region (one ioctl
      // pair per region, not per span); the span sampler reads cumulative
      // values at span boundaries in between.
      if (hw_) hw_->attach(tid);
      try {
        body(tid);
      } catch (...) {
        if (abort_.trigger()) cause = std::current_exception();
        if (hw_) hw_->detach(tid);
        throw;
      }
      if (hw_) hw_->detach(tid);
    });
  } catch (...) {
    // Peers woken by the token may have reached the team first with the
    // generic abort error.
    if (cause) std::rethrow_exception(cause);
    throw;
  }
}

void RunSupport::set_tasks(int ntasks, const std::function<int(int)>& owner_of,
                           int layer_size) {
  pool_->reset(ntasks, owner_of, layer_size);
}

void RunSupport::run_tasks(int tid, const TaskStep& step,
                           const std::function<void()>& prepare) {
  drain_tasks(tid, step);
  task_barrier_->arrive_and_wait(&abort_, recorder(tid), [&] {
    if (prepare) prepare();
    pool_->rearm();
  });
}

void RunSupport::drain_tasks(int tid, const TaskStep& step) {
  // One reference in the pool's callback keeps it inside std::function's
  // small buffer: no allocation per phase.
  struct Visit {
    TaskContext ctx;
    const TaskStep& step;
    sched::TaskPool& pool;
  } v{{}, step, *pool_};
  v.ctx.tid_ = tid;
  v.ctx.blocking_ = config_->schedule == sched::Schedule::Static;
  v.ctx.exec_ = &executor(tid);
  v.ctx.rec_ = recorder(tid);
  v.ctx.abort_ = &abort_;
  pool_->run(
      tid,
      [&v](int task, int, bool stolen) {
        v.ctx.stolen_ = stolen;
        const Index before = v.ctx.exec_->updates_done();
        const sched::StepResult r = v.step(task, v.ctx);
        if (stolen)
          v.pool.add_stolen_updates(
              v.ctx.tid_, static_cast<std::uint64_t>(v.ctx.exec_->updates_done() - before));
        return r;
      },
      &abort_, v.ctx.rec_);
}

int RunSupport::node_of_thread(int tid) const {
  return topo_ ? topo_->node_of_thread(tid) : 0;
}

void RunSupport::serial_init() {
  core::Box whole;
  whole.lo = Coord::filled(problem_->shape().rank(), 0);
  whole.hi = problem_->shape();
  executors_[0]->first_touch_box(whole, /*node=*/0, config_->seed);
}

void RunSupport::finalize_boundary() {
  const core::Boundary& bc = config_->boundary;
  const Coord& shape = problem_->shape();
  const int rank = shape.rank();
  if (bc.all_periodic(rank)) return;

  const core::Box interior = core::updatable_box(shape, problem_->stencil(), bc);
  const Coord& strides = problem_->buffer(0).strides();
  double* u0 = problem_->buffer(0).data();
  double* u1 = problem_->buffer(1).data();

  Coord pos = Coord::filled(rank, 0);
  const Index volume = problem_->volume();
  for (Index c = 0; c < volume; ++c) {
    bool inside = true;
    for (int d = 0; d < rank; ++d)
      inside = inside && pos[d] >= interior.lo[d] && pos[d] < interior.hi[d];
    if (!inside) {
      // Storage index of the logical cell (== c for dense layouts).
      const Index i = linear_index(pos, strides);
      u1[i] = u0[i];
      if (checker_) checker_->freeze(i);
    }
    // Advance the odometer.
    for (int d = 0; d < rank; ++d) {
      if (++pos[d] < shape[d]) break;
      pos[d] = 0;
    }
  }
}

RunResult RunSupport::finish(const std::string& scheme_name, double seconds) {
  RunResult r;
  r.scheme = scheme_name;
  r.threads = config_->num_threads;
  r.timesteps = config_->timesteps;
  r.seconds = seconds;
  for (const auto& e : executors_) r.updates += e->updates_done();
  // The workers have joined: the closing heartbeat shows the run's totals.
  if (config_->progress) config_->progress->stop();
  if (recorder_) r.traffic = recorder_->collect();
  if (trace_) r.phases = trace_->breakdown();
  if (trace_ && config_->profile_spans)
    r.prof = prof::summarize(*trace_, trace_->flops_per_update());
  if (hw_) {
    r.hw = hw_->stats();
    if (trace_) {
      // Attributed totals: the exact out-of-ring sums of every Tile and
      // Init span delta — the same invariant the simulated counters
      // carry.  The remainder against `total` is real unattributed time
      // (barriers, spin-waits, scheduling) and stays visible as such.
      for (int tid = 0; tid < config_->num_threads &&
                        tid < static_cast<int>(r.hw.threads.size());
           ++tid) {
        const trace::ThreadRecorder* rec = trace_->thread(tid);
        const trace::CounterSet& tile = rec->counter_total(trace::Phase::Tile);
        const trace::CounterSet& init = rec->counter_total(trace::Phase::Init);
        for (int ev = 0; ev < hwc::kNumEvents; ++ev) {
          const trace::SpanCounter slot =
              hwc::event_slot(static_cast<hwc::Event>(ev));
          const std::uint64_t sum = tile.at(slot) + init.at(slot);
          r.hw.threads[static_cast<std::size_t>(tid)]
              .attributed[static_cast<std::size_t>(ev)] = sum;
          r.hw.attributed[static_cast<std::size_t>(ev)] += sum;
        }
      }
      if (config_->cache_sim && trace_->events_per_thread() > 0 &&
          r.hw.available(hwc::Event::CacheMisses))
        r.hw.validation = hwc::validate_against_simulation(*trace_);
    }
  }
  if (checker_) checker_->check_all_at(config_->timesteps);
  if (config_->metrics) {
    metrics::Registry& reg = *config_->metrics;
    for (const auto& e : executors_) {
      const core::KernelCounts& k = e->counts();
      reg.add("kernel/tiles", k.tiles);
      reg.add("kernel/rows/" + e->kernel().name(), k.fast_rows);
      reg.add("kernel/slow_cells", k.slow_cells);
      reg.add_buckets("kernel/tile_updates", k.tile_buckets);
    }
  }
  r.sched = pool_->stats();
  if (r.sched.enabled) {
    r.details["steal_attempts"] = static_cast<double>(r.sched.total_attempts());
    r.details["steals"] = static_cast<double>(r.sched.total_steals());
    r.details["steal_fails"] = static_cast<double>(r.sched.total_fails());
    r.details["stolen_updates"] =
        static_cast<double>(r.sched.total_stolen_updates());
  }
  return r;
}

}  // namespace nustencil::schemes
