#include "sched/pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "common/error.hpp"

namespace nustencil::sched {

std::vector<int> thread_nodes(const topology::MachineSpec& machine,
                              numa::PinPolicy policy, int num_threads) {
  // Mirrors numa::VirtualTopology's placement so that scheduling and
  // traffic instrumentation agree on where every worker lives.
  std::vector<int> nodes(static_cast<std::size_t>(num_threads));
  const int num_nodes = std::max(1, machine.numa_nodes());
  for (int tid = 0; tid < num_threads; ++tid) {
    if (policy == numa::PinPolicy::Scatter) {
      nodes[static_cast<std::size_t>(tid)] = tid % num_nodes;
    } else {
      const int core = tid % std::max(1, machine.cores());
      nodes[static_cast<std::size_t>(tid)] = machine.node_of_core(core);
    }
  }
  return nodes;
}

TaskPool::TaskPool(int num_threads, std::vector<int> thread_node, Schedule schedule)
    : num_threads_(num_threads),
      schedule_(schedule),
      node_(std::move(thread_node)),
      deques_(static_cast<std::size_t>(num_threads)),
      counts_(static_cast<std::size_t>(num_threads)) {
  NUSTENCIL_CHECK(num_threads >= 1, "TaskPool: need at least one thread");
  NUSTENCIL_CHECK(static_cast<int>(node_.size()) == num_threads,
                  "TaskPool: one node per thread required");

  // Victim ranking per thief: same NUMA node first, then increasing
  // simulated distance |node_v - node_t|; ties broken by ring distance
  // from the thief so contention spreads instead of piling on thread 0.
  // The static schedule has no thieves.
  victims_.resize(static_cast<std::size_t>(num_threads));
  for (int tid = 0; schedule != Schedule::Static && tid < num_threads; ++tid) {
    std::vector<int>& order = victims_[static_cast<std::size_t>(tid)];
    for (int v = 0; v < num_threads; ++v) {
      if (v == tid) continue;
      const int dist = std::abs(node_[static_cast<std::size_t>(v)] -
                                node_[static_cast<std::size_t>(tid)]);
      if (schedule == Schedule::StealLocal && dist != 0) continue;
      order.push_back(v);
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const int da = std::abs(node_[static_cast<std::size_t>(a)] -
                              node_[static_cast<std::size_t>(tid)]);
      const int db = std::abs(node_[static_cast<std::size_t>(b)] -
                              node_[static_cast<std::size_t>(tid)]);
      if (da != db) return da < db;
      return (a - tid + num_threads_) % num_threads_ <
             (b - tid + num_threads_) % num_threads_;
    });
  }
}

void TaskPool::reset(int num_tasks, const std::function<int(int)>& owner_of,
                     int layer_size) {
  NUSTENCIL_CHECK(layer_size >= 0, "TaskPool::reset: negative layer size");
  layer_size_ = layer_size;
  owner_.assign(static_cast<std::size_t>(num_tasks), 0);
  for (PerThread& t : counts_) t.own.clear();
  for (int i = 0; i < num_tasks; ++i) {
    const int owner = owner_of(i);
    NUSTENCIL_CHECK(owner >= 0 && owner < num_threads_,
                    "TaskPool::reset: task owner out of range");
    owner_[static_cast<std::size_t>(i)] = owner;
    counts_[static_cast<std::size_t>(owner)].own.push_back(i);
  }
  rearm();
}

void TaskPool::rearm() {
  if (schedule_ == Schedule::Static) return;
  NUSTENCIL_CHECK(remaining_.load(std::memory_order_acquire) == 0,
                  "TaskPool: previous phase still has live tasks");
  for (std::size_t tid = 0; tid < deques_.size(); ++tid)
    deques_[tid].tasks.assign(counts_[tid].own.begin(), counts_[tid].own.end());
  remaining_.store(static_cast<int>(owner_.size()), std::memory_order_release);
}

std::deque<int>::iterator TaskPool::layer_end(std::deque<int>& tasks, int task) const {
  const auto layer = [&](int t) { return layer_size_ > 0 ? t / layer_size_ : 0; };
  return std::partition_point(tasks.begin(), tasks.end(),
                              [&](int t) { return layer(t) <= layer(task); });
}

int TaskPool::take(int tid, bool far_end) {
  WorkDeque& d = deques_[static_cast<std::size_t>(tid)];
  d.lock();
  int task = -1;
  if (!d.tasks.empty()) {
    const auto it =
        far_end ? std::prev(layer_end(d.tasks, d.tasks.front())) : d.tasks.begin();
    task = *it;
    d.tasks.erase(it);
  }
  d.unlock();
  return task;
}

void TaskPool::requeue(int tid, int task) {
  WorkDeque& d = deques_[static_cast<std::size_t>(tid)];
  d.lock();
  d.tasks.insert(layer_end(d.tasks, task), task);
  d.unlock();
}

void TaskPool::run(int tid, const Step& step, const threading::AbortToken* abort,
                   trace::ThreadRecorder* rec) {
  if (schedule_ == Schedule::Static) {
    // One unit per visit, round-robin over the own tasks: each pass
    // visits the live tasks in order and keeps the unfinished ones.
    PerThread& me = counts_[static_cast<std::size_t>(tid)];
    std::vector<int>& live = me.live;
    live.assign(me.own.begin(), me.own.end());
    while (!live.empty()) {
      std::size_t kept = 0;
      for (const int task : live) {
        if (abort) abort->check();
        if (step(task, tid, /*stolen=*/false) != StepResult::Done) live[kept++] = task;
      }
      live.resize(kept);
    }
    return;
  }

  PerThread& me = counts_[static_cast<std::size_t>(tid)];
  SchedStats::Thread& my = me.counts;
  const std::vector<int>& victims = victims_[static_cast<std::size_t>(tid)];
  int backoff = 1;

  const auto execute = [&](int task, bool stolen, int victim) {
    bool advanced = false;
    StepResult r;
    {
      const trace::ScopedSpan span(stolen ? rec : nullptr, trace::Phase::Steal,
                                   {task, victim, -1, tid});
      while ((r = step(task, tid, stolen)) == StepResult::Progress) advanced = true;
    }
    if (r == StepResult::Done) {
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      // Owner-first invariant: a blocked task returns to its owner's
      // deque, behind the rest of its layer, so the owner round-robins
      // that layer's other tiles before re-probing this one.
      requeue(owner_[static_cast<std::size_t>(task)], task);
      if (!advanced) std::this_thread::yield();
    }
  };

  while (remaining_.load(std::memory_order_acquire) > 0) {
    if (abort) abort->check();
    const int own = take(tid, /*far_end=*/false);
    if (own >= 0) {
      backoff = 1;
      execute(own, /*stolen=*/false, -1);
      continue;
    }
    bool stole = false;
    for (const int v : victims) {
      ++my.steal_attempts;
      const int task = take(v, /*far_end=*/true);
      if (task < 0) {
        ++my.steal_fails;
        continue;
      }
      ++my.steals;
      counts_[static_cast<std::size_t>(v)].tasks_lost.fetch_add(
          1, std::memory_order_relaxed);
      backoff = 1;
      execute(task, /*stolen=*/true, v);
      stole = true;
      break;
    }
    if (!stole) {
      // Nothing anywhere: someone is finishing the last tasks.  Back off
      // so the probe counters do not explode while we idle.
      for (int i = 0; i < backoff; ++i) std::this_thread::yield();
      backoff = std::min(backoff * 2, 64);
    }
  }
}

void TaskPool::add_stolen_updates(int tid, std::uint64_t updates) {
  counts_[static_cast<std::size_t>(tid)].counts.stolen_updates += updates;
}

SchedStats TaskPool::stats() const {
  SchedStats s;
  if (schedule_ == Schedule::Static) return s;
  s.enabled = true;
  s.schedule = schedule_name(schedule_);
  s.threads.reserve(counts_.size());
  for (const PerThread& t : counts_) {
    SchedStats::Thread out = t.counts;
    out.stolen_tasks = t.tasks_lost.load(std::memory_order_relaxed);
    s.threads.push_back(out);
  }
  return s;
}

}  // namespace nustencil::sched
