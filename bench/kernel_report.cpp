// Kernel engine perf record: times one full-domain sweep of each of the
// six canonical 3D stars (orders 1-3, constant and banded coefficients)
// under every kernel policy this host can honour, verifies the
// bit-exactness contract, and writes the results as JSON
// (BENCH_kernels.json at the repo root by default) so the vector
// efficiency of the engine — GB/s per variant and speedup over the true
// scalar baseline — is tracked across PRs and gated in CI.
//
//   kernel_report [--edge 64] [--steps N] [--reps R]
//                 [--min-speedup 1.3] [--out BENCH_kernels.json]
//
// Exit status: 0 on success; 1 when a bit-exactness check fails, when
// `auto` is slower than `sse2` on a stencil where the two pick different
// kernels, or when the best vector kernel on the 7-point constant star
// misses the --min-speedup floor over scalar.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
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

struct Stencil {
  std::string name;  ///< e.g. "3d13p_banded"
  core::StencilSpec spec;
};

/// The stars the engine specializes: 3D orders 1..3, constant and banded.
std::vector<Stencil> canonical_stars() {
  std::vector<Stencil> out;
  for (const int order : {1, 2, 3}) {
    for (const bool banded : {false, true}) {
      const std::string name = "3d" + std::to_string(6 * order + 1) + "p_" +
                               (banded ? "banded" : "const");
      if (banded)
        out.push_back({name, core::StencilSpec::banded_star(3, order)});
      else if (order == 1)
        out.push_back({name, core::StencilSpec::paper_3d7p()});
      else
        out.push_back({name, core::StencilSpec::stable_star(3, order)});
    }
  }
  return out;
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
                                     const core::StencilSpec& spec, Index edge,
                                     long sweeps_per_rep, int reps) {
  struct Run {
    core::Problem problem;
    core::Executor exec;
    long t = 0;
    double best = 1e30;
    Run(const Coord& shape, const core::StencilSpec& spec,
        core::KernelPolicy policy)
        : problem(shape, spec), exec((problem.initialize(), problem), {}, policy) {}
  };
  const Coord shape{edge, edge, edge};
  std::vector<Run> runs;
  runs.reserve(policies.size());
  for (core::KernelPolicy policy : policies) runs.emplace_back(shape, spec, policy);

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
  for (Measurement& m : out)
    m.speedup_vs_scalar = out.front().seconds_per_sweep / m.seconds_per_sweep;
  return out;
}

/// Calibrates the per-rep sweep count so one scalar rep takes ~50 ms.
long calibrate_sweeps(const core::StencilSpec& spec, Index edge) {
  core::Problem problem(Coord{edge, edge, edge}, spec);
  problem.initialize();
  core::Executor exec(problem, {}, core::KernelPolicy::Scalar);
  const core::Box domain = whole(problem.shape());
  exec.update_box(domain, 0, 0);
  const double t0 = now_seconds();
  exec.update_box(domain, 1, 0);
  const double one = std::max(1e-6, now_seconds() - t0);
  return std::max<long>(1, static_cast<long>(0.05 / one));
}

bool bitexact_vs_scalar(core::KernelPolicy policy, const core::StencilSpec& spec,
                        Index edge) {
  const Coord shape{edge, edge, edge};
  std::vector<std::vector<double>> results;
  for (int i = 0; i < 2; ++i) {
    core::Problem problem(shape, spec);
    problem.initialize();
    core::Executor exec(problem, {}, i == 0 ? core::KernelPolicy::Scalar : policy);
    for (long t = 0; t < 3; ++t) exec.update_box(whole(shape), t, 0);
    const double* d = problem.buffer(3).data();
    results.emplace_back(d, d + problem.volume());
  }
  return std::memcmp(results[0].data(), results[1].data(),
                     results[0].size() * sizeof(double)) == 0;
}

const Measurement* find(const std::vector<Measurement>& results,
                        core::KernelPolicy policy) {
  for (const Measurement& m : results)
    if (m.policy == policy) return &m;
  return nullptr;
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
                  "vector kernel beats scalar on the 7-point constant star "
                  "by this factor (0 = report only)",
                  "0");
  args.add_option("out", "output JSON path", "BENCH_kernels.json");
  if (!args.parse(argc, argv)) return 0;

  const Index edge = args.get_long("edge");
  const long steps = args.get_long("steps");
  const int reps = static_cast<int>(args.get_long("reps"));
  const double floor = args.get_double("min-speedup");

  using core::KernelIsa;
  using core::KernelPolicy;
  // Scalar first: the speedup column divides by it.
  std::vector<KernelPolicy> policies{KernelPolicy::Scalar};
  if (core::kernel_isa_supported(KernelIsa::SSE2)) policies.push_back(KernelPolicy::SSE2);
  if (core::kernel_isa_supported(KernelIsa::AVX2)) policies.push_back(KernelPolicy::AVX2);
  policies.push_back(KernelPolicy::Auto);

  struct Record {
    std::string stencil;
    long sweeps = 0;
    std::vector<Measurement> results;
    double auto_vs_sse2 = 0.0;  ///< sse2 time / auto time; 0 = same kernel
    bool exact = false;
  };
  std::vector<Record> records;
  bool exact = true;
  bool auto_ok = true;
  for (const Stencil& st : canonical_stars()) {
    Record rec;
    rec.stencil = st.name;
    rec.sweeps = steps > 0 ? steps : calibrate_sweeps(st.spec, edge);
    rec.results = measure_all(policies, st.spec, edge, rec.sweeps, reps);
    rec.exact = bitexact_vs_scalar(KernelPolicy::Auto, st.spec,
                                   std::min<Index>(edge, 32));
    exact = exact && rec.exact;
    std::cout << st.name << " (" << rec.sweeps << " sweeps/rep):\n";
    for (const Measurement& m : rec.results)
      std::cout << "  " << to_string(m.policy) << " -> " << m.kernel << ": "
                << m.gupdates_per_second << " Gupdates/s, " << m.gbytes_per_second
                << " GB/s, " << m.speedup_vs_scalar << "x scalar\n";
    // `auto` must never lose to the narrower ISA it passed over.
    const Measurement* a = find(rec.results, KernelPolicy::Auto);
    const Measurement* s = find(rec.results, KernelPolicy::SSE2);
    if (s && a->kernel != s->kernel) {
      rec.auto_vs_sse2 = s->seconds_per_sweep / a->seconds_per_sweep;
      if (rec.auto_vs_sse2 < 1.0) {
        auto_ok = false;
        std::cout << "FAIL: auto (" << a->kernel << ") runs " << st.name << " at "
                  << rec.auto_vs_sse2 << "x sse2 (" << s->kernel << ")\n";
      }
    }
    records.push_back(rec);
  }

  // Vector efficiency on the paper's 7-point constant star: the best
  // vector case against scalar.
  const std::vector<Measurement>& seven = records.front().results;
  const Measurement* best = nullptr;
  for (const Measurement& m : seven) {
    if (m.policy == KernelPolicy::Scalar) continue;
    if (!best || m.seconds_per_sweep < best->seconds_per_sweep) best = &m;
  }
  const double best_speedup = best ? best->speedup_vs_scalar : 0.0;

  const auto& cpu = core::CpuFeatures::host();
  const auto tf = [](bool b) { return b ? "true" : "false"; };
  std::ofstream out(args.get("out"));
  NUSTENCIL_CHECK(out.good(), "cannot open " + args.get("out"));
  out << "{\n"
      << "  \"bench\": \"kernel_report\",\n"
      << "  \"edge\": " << edge << ",\n"
      << "  \"host\": {\"sse2\": " << tf(cpu.sse2) << ", \"avx2\": " << tf(cpu.avx2)
      << "},\n"
      << "  \"stencils\": [\n";
  for (std::size_t r = 0; r < records.size(); ++r) {
    const Record& rec = records[r];
    out << "    {\"stencil\": \"" << rec.stencil
        << "\", \"sweeps_per_rep\": " << rec.sweeps
        << ", \"auto_vs_sse2\": " << rec.auto_vs_sse2
        << ", \"bitexact_auto_vs_scalar\": " << tf(rec.exact) << ",\n"
        << "     \"results\": [\n";
    for (std::size_t i = 0; i < rec.results.size(); ++i) {
      const Measurement& m = rec.results[i];
      out << "      {\"policy\": \"" << to_string(m.policy)
          << "\", \"kernel\": \"" << m.kernel
          << "\", \"seconds_per_sweep\": " << m.seconds_per_sweep
          << ", \"gupdates_per_s\": " << m.gupdates_per_second
          << ", \"gbytes_per_s\": " << m.gbytes_per_second
          << ", \"speedup_vs_scalar\": " << m.speedup_vs_scalar << "}"
          << (i + 1 < rec.results.size() ? "," : "") << "\n";
    }
    out << "     ]}" << (r + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"vector_efficiency\": {\n"
      << "    \"stencil\": \"" << records.front().stencil << "\",\n"
      << "    \"best_kernel\": \"" << (best ? best->kernel : "") << "\",\n"
      << "    \"best_case\": \"" << (best ? to_string(best->policy) : "") << "\",\n"
      << "    \"speedup_best_vs_scalar\": " << best_speedup << ",\n"
      << "    \"min_speedup_floor\": " << floor << "\n"
      << "  },\n"
      << "  \"auto_not_slower_than_sse2\": " << tf(auto_ok) << ",\n"
      << "  \"bitexact_auto_vs_scalar\": " << tf(exact) << "\n"
      << "}\n";
  std::cout << "best vector kernel on " << records.front().stencil << " at " << edge
            << "^3: " << (best ? best->kernel : "none") << " (" << best_speedup
            << "x scalar, floor " << floor << "); bit-exact: "
            << (exact ? "yes" : "NO") << "; auto >= sse2: " << (auto_ok ? "yes" : "NO")
            << "; wrote " << args.get("out") << '\n';
  const bool floor_ok = floor <= 0.0 || best_speedup >= floor;
  if (!floor_ok)
    std::cout << "FAIL: best vector speedup " << best_speedup
              << "x is below the committed floor " << floor << "x\n";
  return (exact && floor_ok && auto_ok) ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
