#include "layers.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/executor.hpp"
#include "core/field.hpp"
#include "sched/pool.hpp"
#include "thread/barrier.hpp"
#include "thread/spinflag.hpp"
#include "thread/team.hpp"
#include "topology/machine.hpp"

namespace perf_ledger {

using namespace nustencil;

std::size_t host_llc_bytes() {
  long llc = -1;
#if defined(_SC_LEVEL3_CACHE_SIZE)
  llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return llc > 0 ? static_cast<std::size_t>(llc) : std::size_t{32} << 20;
}

std::vector<double> triad_gbs(int threads, std::size_t array_bytes, int reps,
                              SpanLog* spans) {
  const std::size_t n = array_bytes / sizeof(double);
  // Uninitialised on purpose: the team's first touch places the pages.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto chunk = [&](int tid, std::size_t& lo, std::size_t& hi) {
    lo = n * static_cast<std::size_t>(tid) / static_cast<std::size_t>(threads);
    hi = n * static_cast<std::size_t>(tid + 1) / static_cast<std::size_t>(threads);
  };
  threading::Team team(threads, /*pin=*/false);
  team.run([&](int tid) {
    std::size_t lo, hi;
    chunk(tid, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  std::vector<double> out;
  for (int rep = 0; rep < reps; ++rep) {
    Span span(spans, "threading::Team::run[triad]");
    Timer timer;
    team.run([&](int tid) {
      std::size_t lo, hi;
      chunk(tid, lo, hi);
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    out.push_back(3.0 * static_cast<double>(array_bytes) / timer.seconds() * 1e-9);
  }
  NUSTENCIL_CHECK(a[0] == 7.0 && a[n - 1] == 7.0, "triad produced a wrong result");
  return out;
}

CoreSweep core_sweep(const Coord& shape, const core::StencilSpec& stencil,
                     const MicroScale& scale, SpanLog* spans) {
  core::Problem problem(shape, stencil);
  problem.initialize();
  core::Executor exec(problem);
  const core::Box whole{Coord::filled(3, 0), shape};
  std::vector<core::Box> boxes;
  for (Index z = 0; z < shape[2]; z += 4)
    for (Index y = 0; y < shape[1]; y += 4)
      for (Index x = 0; x < shape[0]; x += 16)
        boxes.push_back({Coord{x, y, z}, Coord{std::min(x + 16, shape[0]),
                                                std::min(y + 4, shape[1]),
                                                std::min(z + 4, shape[2])}});
  CoreSweep out;
  out.sweep_bytes = static_cast<double>(problem.sweep_bytes());
  out.tiles = static_cast<Index>(boxes.size());

  long t = 0;
  exec.update_box(whole, t++, 0);  // warm the kernel and the caches
  Timer budget;
  do {
    {
      Span span(spans, "core::Executor::update_box[whole]");
      Timer timer;
      exec.update_box(whole, t++, 0);
      out.whole_s.push_back(timer.seconds());
    }
    {
      Span span(spans, "core::Executor::update_box[16x4x4]");
      Timer timer;
      for (const core::Box& box : boxes) exec.update_box(box, t, 0);
      ++t;
      out.tiled_s.push_back(timer.seconds());
    }
  } while (budget.seconds() < scale.sweep_seconds || out.whole_s.size() < 3);
  return out;
}

std::vector<double> problem_alloc_s(const Coord& shape, const core::StencilSpec& stencil,
                                    int reps, SpanLog* spans) {
  std::vector<double> out;
  for (int rep = 0; rep < reps; ++rep) {
    Span span(spans, "core::Problem");
    Timer timer;
    const core::Problem problem(shape, stencil);
    out.push_back(timer.seconds());
  }
  return out;
}

std::vector<double> barrier_ns(int threads, const MicroScale& scale, SpanLog* spans) {
  threading::Team team(threads, /*pin=*/false);
  threading::Barrier barrier(threads);
  std::vector<double> out;
  for (int rep = 0; rep < scale.reps; ++rep) {
    Span span(spans, "threading::Barrier::arrive_and_wait");
    Timer timer;
    team.run([&](int) {
      for (int i = 0; i < scale.sync_iters; ++i) barrier.arrive_and_wait();
    });
    out.push_back(timer.seconds() * 1e9 / scale.sync_iters);
  }
  return out;
}

std::vector<double> progress_handoff_ns(int threads, const MicroScale& scale,
                                        SpanLog* spans) {
  threading::Team team(threads, /*pin=*/false);
  std::vector<threading::ProgressCounter> ring(static_cast<std::size_t>(threads));
  std::vector<double> out;
  for (int rep = 0; rep < scale.reps; ++rep) {
    for (threading::ProgressCounter& c : ring) c.reset();
    Span span(spans, "threading::ProgressCounter");
    Timer timer;
    // A token circles the ring: tid waits for its predecessor to reach
    // round k (tid 0 for round k-1), then publishes round k itself.
    team.run([&](int tid) {
      const std::size_t me = static_cast<std::size_t>(tid);
      const threading::ProgressCounter& prev =
          ring[(me + ring.size() - 1) % ring.size()];
      for (long k = 1; k <= scale.sync_iters; ++k) {
        prev.wait_for(tid == 0 ? k - 1 : k);
        ring[me].advance_to(k);
      }
    });
    out.push_back(timer.seconds() * 1e9 /
                  (static_cast<double>(scale.sync_iters) * threads));
  }
  return out;
}

std::vector<double> team_run_us(int threads, int reps, SpanLog* spans) {
  std::vector<double> out;
  for (int rep = 0; rep < reps; ++rep) {
    Span span(spans, "threading::Team::run[empty]");
    Timer timer;
    {
      threading::Team team(threads, /*pin=*/false);
      team.run([](int) {});
    }
    out.push_back(timer.seconds() * 1e6);
  }
  return out;
}

std::vector<double> task_ns(int threads, const MicroScale& scale, SpanLog* spans) {
  threading::Team team(threads, /*pin=*/false);
  sched::TaskPool pool(threads,
                       sched::thread_nodes(topology::host(), numa::PinPolicy::Compact,
                                           threads),
                       sched::Schedule::Steal);
  const auto empty = [](int, int, bool) { return sched::StepResult::Done; };
  std::vector<double> out;
  for (int rep = 0; rep < scale.reps; ++rep) {
    Span span(spans, "sched::TaskPool::reset/run");
    Timer timer;
    pool.reset(scale.tasks, [](int) { return 0; });
    team.run([&](int tid) { pool.run(tid, empty, nullptr, nullptr); });
    out.push_back(timer.seconds() * 1e9 / scale.tasks);
  }
  return out;
}

namespace {

std::vector<double> average_ranks(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
  std::vector<double> rank(v.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = 0.5 * static_cast<double>(i + j);
    i = j + 1;
  }
  return rank;
}

}  // namespace

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<double> ra = average_ranks(a), rb = average_ranks(b);
  const double n = static_cast<double>(ra.size());
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i] / n;
    mb += rb[i] / n;
  }
  double sab = 0, saa = 0, sbb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    sab += (ra[i] - ma) * (rb[i] - mb);
    saa += (ra[i] - ma) * (ra[i] - ma);
    sbb += (rb[i] - mb) * (rb[i] - mb);
  }
  return saa > 0 && sbb > 0 ? sab / std::sqrt(saa * sbb) : 0.0;
}

}  // namespace perf_ledger
