// Google-benchmark wall-clock comparison of all nine schemes on this
// host (small domain; thread count = min(4, hardware)).  Real execution,
// real time — complements the modelled figure benches.
#include <benchmark/benchmark.h>

#include <thread>

#include "schemes/scheme.hpp"

namespace {

using namespace nustencil;

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
}

void run_scheme(benchmark::State& state, const std::string& name) {
  const Index edge = 48;
  const long steps = 8;
  auto scheme = schemes::make_scheme(name);
  schemes::RunConfig cfg;
  cfg.num_threads = bench_threads();
  cfg.timesteps = steps;
  cfg.boundary = scheme->default_boundary();
  Index updates = 0;
  for (auto _ : state) {
    core::Problem problem(Coord{edge, edge, edge}, core::StencilSpec::paper_3d7p());
    const auto result = scheme->run(problem, cfg);
    updates += result.updates;
  }
  state.SetItemsProcessed(updates);
  state.counters["Gupdates/s"] =
      benchmark::Counter(static_cast<double>(updates), benchmark::Counter::kIsRate);
}

// Large-tau head-to-head: a deep time loop on a domain whose full
// working set exceeds the LLC, so temporal blocking depth decides the
// winner.  MWD's diamonds reach tau ~ Nz/2s here while the CATS-family
// wavefronts pay a full sweep of memory traffic per layer of their
// (smaller) tile height.
void run_large_tau(benchmark::State& state, const std::string& name) {
  const long steps = 48;
  auto scheme = schemes::make_scheme(name);
  schemes::RunConfig cfg;
  cfg.num_threads = bench_threads();
  cfg.timesteps = steps;
  cfg.boundary = scheme->default_boundary();
  Index updates = 0;
  for (auto _ : state) {
    core::Problem problem(Coord{64, 64, 96}, core::StencilSpec::paper_3d7p());
    const auto result = scheme->run(problem, cfg);
    updates += result.updates;
  }
  state.SetItemsProcessed(updates);
  state.counters["Gupdates/s"] =
      benchmark::Counter(static_cast<double>(updates), benchmark::Counter::kIsRate);
}

}  // namespace

#define SCHEME_BENCH(NAME, STR)                                             \
  void BM_##NAME(benchmark::State& state) { run_scheme(state, STR); }       \
  BENCHMARK(BM_##NAME)->Unit(benchmark::kMillisecond)->MinTime(0.5)->UseRealTime()

SCHEME_BENCH(NaiveSSE, "NaiveSSE");
SCHEME_BENCH(CATS, "CATS");
SCHEME_BENCH(nuCATS, "nuCATS");
SCHEME_BENCH(CORALS, "CORALS");
SCHEME_BENCH(nuCORALS, "nuCORALS");
SCHEME_BENCH(Pochoir, "Pochoir");
SCHEME_BENCH(PLuTo, "PLuTo");
SCHEME_BENCH(MWD, "MWD");
SCHEME_BENCH(nuMWD, "nuMWD");

#define LARGE_TAU_BENCH(NAME, STR)                                            \
  void BM_LargeTau_##NAME(benchmark::State& state) {                          \
    run_large_tau(state, STR);                                                \
  }                                                                           \
  BENCHMARK(BM_LargeTau_##NAME)->Unit(benchmark::kMillisecond)->MinTime(0.5)->UseRealTime()

LARGE_TAU_BENCH(nuCATS, "nuCATS");
LARGE_TAU_BENCH(nuCORALS, "nuCORALS");
LARGE_TAU_BENCH(nuMWD, "nuMWD");

BENCHMARK_MAIN();
