// Trace-driven cache simulation of real scheme executions: the paper's
// core claim — temporal blocking moves far less memory traffic per update
// than a naive sweep — demonstrated *empirically* on the simulated cache
// hierarchy, not just via the analytic model.
#include <gtest/gtest.h>

#include "cachesim/shared.hpp"
#include "core/reference.hpp"
#include "schemes/scheme.hpp"

namespace nustencil {
namespace {

/// A machine whose caches sit far below the test domain but still well
/// above one base parallelogram (32 KiB), mirroring the paper-scale
/// proportions: domain/LLC ~ 8x, base/LLC ~ 1/8 — a 40^3 problem (1 MiB
/// per buffer) then behaves like 500^3 against a real L2/L3.
topology::MachineSpec toy_machine() {
  topology::MachineSpec m = topology::opteron8222();
  m.caches = {
      {"L1", 32 * 1024, 1, 64, 2, 600.0},
      {"L2", 256 * 1024, 1, 64, 8, 200.0},
  };
  return m;
}

/// Runs `scheme` with the trace-driven simulator attached and returns the
/// simulated memory traffic in doubles per update.
double simulated_mem_doubles(const std::string& name, Index edge, long steps,
                             int threads) {
  const topology::MachineSpec machine = toy_machine();
  cachesim::SharedHierarchy sim(machine, threads);
  const auto scheme = schemes::make_scheme(name);
  schemes::RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = steps;
  cfg.cache_sim = &sim;
  cfg.boundary = scheme->default_boundary();
  core::Problem problem(Coord{edge, edge, edge}, core::StencilSpec::paper_3d7p());
  const auto result = scheme->run(problem, cfg);
  return static_cast<double>(sim.traffic().memory_bytes(sim.line_bytes())) /
         static_cast<double>(result.updates) / 8.0;
}

TEST(TraceSim, TemporalBlockingMovesLessMemoryThanNaive) {
  const double naive = simulated_mem_doubles("NaiveSSE", 40, 12, 2);
  const double nucorals = simulated_mem_doubles("nuCORALS", 40, 12, 2);
  const double nucats = simulated_mem_doubles("nuCATS", 40, 12, 2);
  // Naive re-streams both buffers every step (>= ~2 doubles/update); the
  // temporal blockers must show clear reuse across steps.
  EXPECT_GT(naive, 1.5);
  EXPECT_LT(nucorals, 0.75 * naive);
  EXPECT_LT(nucats, 0.75 * naive);
}

TEST(TraceSim, TemporalBlockersBeatTheIdealCachingBound) {
  // Being below 2 doubles/update means beating SysBandIC — the signature
  // the paper uses in Section IV-D ("transfer on average less than 2
  // doubles from main memory per stencil update").
  EXPECT_LT(simulated_mem_doubles("nuCORALS", 40, 16, 2), 2.0);
  EXPECT_LT(simulated_mem_doubles("nuCATS", 40, 16, 2), 2.0);
}

TEST(TraceSim, BandedTrafficExceedsConstant) {
  const topology::MachineSpec machine = toy_machine();
  cachesim::SharedHierarchy sim_c(machine, 1), sim_b(machine, 1);
  for (const bool banded : {false, true}) {
    schemes::RunConfig cfg;
    cfg.num_threads = 1;
    cfg.timesteps = 6;
    cfg.cache_sim = banded ? &sim_b : &sim_c;
    const auto st = banded ? core::StencilSpec::banded_star(3, 1)
                           : core::StencilSpec::paper_3d7p();
    core::Problem problem(Coord{24, 24, 24}, st);
    schemes::make_scheme("nuCORALS")->run(problem, cfg);
  }
  EXPECT_GT(sim_b.traffic().memory_bytes(64), 2 * sim_c.traffic().memory_bytes(64))
      << "streaming 7 coefficient bands must dominate the banded traffic";
}

TEST(TraceSim, SimulationDoesNotPerturbResults) {
  // Attaching the simulator must not change a single output value.
  const topology::MachineSpec machine = toy_machine();
  cachesim::SharedHierarchy sim(machine, 2);
  schemes::RunConfig with, without;
  with.num_threads = without.num_threads = 2;
  with.timesteps = without.timesteps = 5;
  with.cache_sim = &sim;
  core::Problem a(Coord{16, 14, 12}, core::StencilSpec::paper_3d7p());
  core::Problem b(Coord{16, 14, 12}, core::StencilSpec::paper_3d7p());
  schemes::make_scheme("nuCORALS")->run(a, with);
  schemes::make_scheme("nuCORALS")->run(b, without);
  EXPECT_DOUBLE_EQ(core::max_rel_diff(a.buffer(5), b.buffer(5)), 0.0);
}

}  // namespace
}  // namespace nustencil
