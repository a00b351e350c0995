// Kernel engine perf record: times one full-domain sweep of the
// paper's 3D 7-point constant stencil under every kernel policy this
// host can honour, verifies the bit-exactness contract, and writes the
// results as JSON (BENCH_kernels.json at the repo root by default) so the
// vector efficiency of the engine — GB/s per variant and speedup over
// the true scalar baseline — is tracked across PRs and gated in CI.
//
//   kernel_report [--edge 64] [--steps N] [--reps R]
//                 [--min-speedup 1.3] [--out BENCH_kernels.json]
//
// Exit status: 0 on success; 1 when a bit-exactness check fails or the
// best vector kernel misses the --min-speedup floor over scalar.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "core/executor.hpp"
#include "core/kernels.hpp"

namespace {

using namespace nustencil;

core::Box whole(const Coord& shape) {
  core::Box b;
  b.lo = Coord::filled(shape.rank(), 0);
  b.hi = shape;
  return b;
}

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct Measurement {
  core::KernelPolicy policy;
  std::string kernel;  // selected variant name
  double seconds_per_sweep = 0.0;
  double gupdates_per_second = 0.0;
  double gbytes_per_second = 0.0;  // algorithmic traffic / time
  double speedup_vs_scalar = 0.0;
};

/// Times `sweeps_per_rep` full-domain sweeps per rep for every policy,
/// interleaving the reps round-robin across the policies (so clock-speed
/// or steal-time drift on a shared machine biases every policy equally,
/// not whichever happened to run during the slow phase) and keeping the
/// best rep per policy.
std::vector<Measurement> measure_all(const std::vector<core::KernelPolicy>& policies,
                                     Index edge, long sweeps_per_rep, int reps) {
  struct Run {
    core::Problem problem;
    core::Executor exec;
    long t = 0;
    double best = 1e30;
    Run(const Coord& shape, core::KernelPolicy policy)
        : problem(shape, core::StencilSpec::paper_3d7p()),
          exec((problem.initialize(), problem), {}, policy) {}
  };
  const Coord shape{edge, edge, edge};
  std::vector<Run> runs;
  runs.reserve(policies.size());
  for (core::KernelPolicy policy : policies) runs.emplace_back(shape, policy);

  const core::Box domain = whole(shape);
  for (Run& r : runs)
    for (int warm = 0; warm < 2; ++warm) r.exec.update_box(domain, r.t++, 0);

  for (int rep = 0; rep < reps; ++rep) {
    for (Run& r : runs) {
      const double t0 = now_seconds();
      for (long i = 0; i < sweeps_per_rep; ++i) r.exec.update_box(domain, r.t++, 0);
      r.best = std::min(r.best, now_seconds() - t0);
    }
  }

  std::vector<Measurement> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    Measurement m;
    m.policy = policies[i];
    m.kernel = runs[i].exec.kernel().name();
    m.seconds_per_sweep = runs[i].best / static_cast<double>(sweeps_per_rep);
    m.gupdates_per_second =
        static_cast<double>(runs[i].problem.volume()) / m.seconds_per_sweep * 1e-9;
    // Algorithmic bytes of one sweep (read src once, write dst once, plus
    // bands): what a perfect cache would move.  Same numerator for every
    // policy, so the GB/s column ranks variants by achieved bandwidth.
    m.gbytes_per_second =
        static_cast<double>(runs[i].problem.sweep_bytes()) / m.seconds_per_sweep * 1e-9;
    out.push_back(m);
  }
  return out;
}

/// Calibrates the per-rep sweep count so one rep takes ~50 ms.
long calibrate_sweeps(Index edge) {
  core::Problem problem(Coord{edge, edge, edge}, core::StencilSpec::paper_3d7p());
  problem.initialize();
  core::Executor exec(problem, {}, core::KernelPolicy::Scalar);
  const core::Box domain = whole(problem.shape());
  exec.update_box(domain, 0, 0);
  const double t0 = now_seconds();
  exec.update_box(domain, 1, 0);
  const double one = std::max(1e-6, now_seconds() - t0);
  return std::max<long>(1, static_cast<long>(0.05 / one));
}

bool bitexact_vs_scalar(core::KernelPolicy policy, Index edge) {
  const Coord shape{edge, edge, edge};
  std::vector<std::vector<double>> results;
  for (int i = 0; i < 2; ++i) {
    core::Problem problem(shape, core::StencilSpec::paper_3d7p());
    problem.initialize();
    core::Executor exec(problem, {}, i == 0 ? core::KernelPolicy::Scalar : policy);
    for (long t = 0; t < 3; ++t) exec.update_box(whole(shape), t, 0);
    const double* d = problem.buffer(3).data();
    results.emplace_back(d, d + problem.volume());
  }
  return std::memcmp(results[0].data(), results[1].data(),
                     results[0].size() * sizeof(double)) == 0;
}

bool policy_runnable(core::KernelPolicy policy) {
  using core::KernelIsa;
  switch (policy) {
    case core::KernelPolicy::SSE2:
      return core::kernel_isa_supported(KernelIsa::SSE2);
    case core::KernelPolicy::AVX2:
      return core::kernel_isa_supported(KernelIsa::AVX2);
    case core::KernelPolicy::FMA:
      return core::kernel_isa_supported(KernelIsa::AVX2) &&
             core::CpuFeatures::host().fma;
    default:
      return true;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("kernel_report",
                 "time the kernel engine's policies and write BENCH_kernels.json");
  args.add_option("edge", "cubic domain edge", "64");
  args.add_option("steps", "sweeps per timing rep (0 = calibrate to ~50 ms)", "0");
  args.add_option("reps", "interleaved timing reps per policy", "13");
  args.add_option("min-speedup",
                  "vector-efficiency floor: fail (exit 1) unless the best "
                  "bit-exact vector kernel beats scalar by this factor "
                  "(0 = report only)",
                  "0");
  args.add_option("out", "output JSON path", "BENCH_kernels.json");
  if (!args.parse(argc, argv)) return 0;

  const Index edge = args.get_long("edge");
  long sweeps = args.get_long("steps");
  if (sweeps <= 0) sweeps = calibrate_sweeps(edge);
  const int reps = static_cast<int>(args.get_long("reps"));
  const double floor = args.get_double("min-speedup");

  const auto& cpu = core::CpuFeatures::host();
  std::vector<core::KernelPolicy> policies;
  for (core::KernelPolicy policy :
       {core::KernelPolicy::Scalar, core::KernelPolicy::SSE2,
        core::KernelPolicy::AVX2, core::KernelPolicy::FMA,
        core::KernelPolicy::Auto}) {
    if (policy_runnable(policy)) policies.push_back(policy);
  }

  std::vector<Measurement> results = measure_all(policies, edge, sweeps, reps);

  double scalar_time = 0.0;
  for (const Measurement& m : results)
    if (m.policy == core::KernelPolicy::Scalar) scalar_time = m.seconds_per_sweep;
  for (Measurement& m : results)
    m.speedup_vs_scalar =
        m.seconds_per_sweep > 0 ? scalar_time / m.seconds_per_sweep : 0.0;

  for (const Measurement& m : results)
    std::cout << "  " << to_string(m.policy) << " -> " << m.kernel << ": "
              << m.gupdates_per_second << " Gupdates/s, " << m.gbytes_per_second
              << " GB/s, " << m.speedup_vs_scalar << "x scalar\n";

  // Vector efficiency: the best *bit-exact* vector case (FMA reorders the
  // summation, so it may not represent the contract-keeping engine).
  const Measurement* best = nullptr;
  for (const Measurement& m : results) {
    if (m.policy == core::KernelPolicy::Scalar || m.policy == core::KernelPolicy::FMA)
      continue;
    if (!best || m.seconds_per_sweep < best->seconds_per_sweep) best = &m;
  }
  const double best_speedup = best ? best->speedup_vs_scalar : 0.0;

  const bool exact =
      bitexact_vs_scalar(core::KernelPolicy::Auto, std::min<Index>(edge, 32));

  std::ofstream out(args.get("out"));
  NUSTENCIL_CHECK(out.good(), "cannot open " + args.get("out"));
  out << "{\n"
      << "  \"bench\": \"kernel_report\",\n"
      << "  \"stencil\": \"3d7p_const\",\n"
      << "  \"edge\": " << edge << ",\n"
      << "  \"sweeps_per_rep\": " << sweeps << ",\n"
      << "  \"host\": {\"sse2\": " << (cpu.sse2 ? "true" : "false")
      << ", \"avx2\": " << (cpu.avx2 ? "true" : "false")
      << ", \"fma\": " << (cpu.fma ? "true" : "false") << "},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    out << "    {\"policy\": \"" << to_string(m.policy)
        << "\", \"kernel\": \"" << m.kernel
        << "\", \"seconds_per_sweep\": " << m.seconds_per_sweep
        << ", \"gupdates_per_s\": " << m.gupdates_per_second
        << ", \"gbytes_per_s\": " << m.gbytes_per_second
        << ", \"speedup_vs_scalar\": " << m.speedup_vs_scalar << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"vector_efficiency\": {\n"
      << "    \"best_kernel\": \"" << (best ? best->kernel : "") << "\",\n"
      << "    \"best_case\": \"" << (best ? to_string(best->policy) : "") << "\",\n"
      << "    \"speedup_best_vs_scalar\": " << best_speedup << ",\n"
      << "    \"min_speedup_floor\": " << floor << "\n"
      << "  },\n"
      << "  \"bitexact_auto_vs_scalar\": " << (exact ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "best vector kernel at " << edge << "^3: "
            << (best ? best->kernel : "none") << " (" << best_speedup
            << "x scalar, floor " << floor << "); bit-exact: "
            << (exact ? "yes" : "NO") << "; wrote " << args.get("out") << '\n';
  const bool floor_ok = floor <= 0.0 || best_speedup >= floor;
  if (!floor_ok)
    std::cout << "FAIL: best vector speedup " << best_speedup
              << "x is below the committed floor " << floor << "x\n";
  return (exact && floor_ok) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
