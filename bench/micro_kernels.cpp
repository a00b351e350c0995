// Google-benchmark microbenchmarks of the stencil kernels on this host:
// the full kernel-engine matrix — every tap count the engine specializes
// (7/13/19-point, 3D orders 1-3) times constant vs banded coefficients
// times every policy (scalar / SSE2 / AVX2 / auto), all bit-exact —
// registered programmatically so no combination can silently drop out of
// the sweep.  These measure real wall time (unlike the figure benches,
// which model the paper machines); run with --benchmark_format=json for
// one JSON blob per combination.  For the JSON kernel record written to
// BENCH_kernels.json, see bench/kernel_report.cpp.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/field.hpp"
#include "core/kernels.hpp"

namespace {

using namespace nustencil;
using core::KernelPolicy;

/// Skips (instead of silently downgrading) when this host can't honour
/// the requested policy, so the reported numbers are what they claim.
bool policy_runnable(KernelPolicy policy) {
  using core::KernelIsa;
  switch (policy) {
    case KernelPolicy::SSE2: return core::kernel_isa_supported(KernelIsa::SSE2);
    case KernelPolicy::AVX2: return core::kernel_isa_supported(KernelIsa::AVX2);
    default: return true;
  }
}

core::StencilSpec make_stencil(int order, bool banded) {
  if (banded) return core::StencilSpec::banded_star(3, order);
  if (order == 1) return core::StencilSpec::paper_3d7p();
  return core::StencilSpec::stable_star(3, order);
}

void run_sweep(benchmark::State& state, int order, bool banded,
               KernelPolicy policy) {
  if (!policy_runnable(policy)) {
    state.SkipWithError("kernel policy unsupported on this host");
    return;
  }
  const Index edge = state.range(0);
  core::Problem problem(Coord{edge, edge, edge}, make_stencil(order, banded));
  problem.initialize();
  core::Executor exec(problem, {}, policy);
  core::Box domain;
  domain.lo = Coord::filled(3, 0);
  domain.hi = problem.shape();
  long t = 0;
  for (auto _ : state) {
    exec.update_box(domain, t, 0);
    ++t;
  }
  state.SetLabel(exec.kernel().name());
  state.SetItemsProcessed(state.iterations() * problem.volume());
  state.counters["Gupdates/s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * problem.volume()),
                         benchmark::Counter::kIsRate);
}

void register_matrix() {
  const std::vector<std::pair<KernelPolicy, const char*>> policies = {
      {KernelPolicy::Scalar, "Scalar"}, {KernelPolicy::SSE2, "SSE2"},
      {KernelPolicy::AVX2, "AVX2"},     {KernelPolicy::Auto, "Auto"}};
  for (const int order : {1, 2, 3}) {
    for (const bool banded : {false, true}) {
      const std::string combo = std::to_string(6 * order + 1) + "pt_" +
                                (banded ? "banded" : "const");
      for (const auto& [policy, policy_name] : policies) {
        const std::string name = "BM_" + combo + "/" + policy_name;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [order, banded, policy](benchmark::State& state) {
              run_sweep(state, order, banded, policy);
            })
            ->Arg(32)
            ->Arg(64);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_matrix();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
