// Plan descriptions (--explain) and pinning policies.
#include <gtest/gtest.h>

#include <set>

#include "numa/traffic.hpp"
#include "schemes/explain.hpp"
#include "schemes/scheme.hpp"
#include "trace/trace.hpp"

namespace nustencil {
namespace {

const topology::MachineSpec kXeon = topology::xeonX7550();

TEST(Explain, DescribesEveryScheme) {
  for (const std::string name :
       {"NaiveSSE", "CATS", "nuCATS", "CORALS", "nuCORALS", "Pochoir", "PLuTo"}) {
    const std::string text = schemes::describe_plan(
        name, Coord{160, 160, 160}, core::StencilSpec::paper_3d7p(), kXeon, 32, 100);
    EXPECT_NE(text.find(name), std::string::npos);
    EXPECT_GT(text.size(), 100u) << name;
  }
  EXPECT_THROW(schemes::describe_plan("nope", Coord{16, 16, 16},
                                      core::StencilSpec::paper_3d7p(), kXeon, 1, 1),
               Error);
}

TEST(Explain, NuCoralsPlanMatchesPaperFormulas) {
  const std::string text = schemes::describe_plan(
      "nuCORALS", Coord{500, 500, 500}, core::StencilSpec::paper_3d7p(), kXeon, 32, 100);
  EXPECT_NE(text.find("tau        : 31"), std::string::npos)
      << "b = 500/8 = 62, tau = b/2 = 31\n" << text;
  EXPECT_NE(text.find("[1,4,8]"), std::string::npos) << text;
  EXPECT_NE(text.find("~75%"), std::string::npos) << text;
}

TEST(Explain, NuCoralsBaseCountMatchesRun) {
  // --explain and the run build the root parallelogram through the same
  // helper, so the base count it prints is the one the run executes in a
  // full-height layer.  4 threads on 64x24x20: b = 10, tau = 5; 10 steps
  // are two full layers, 12 steps leave a 2-step last layer with fewer
  // bases, which the reported count must not pick up.
  const Coord shape{64, 24, 20};
  for (const long steps : {10L, 12L}) {
    const std::string text = schemes::describe_plan(
        "nuCORALS", shape, core::StencilSpec::paper_3d7p(), kXeon, 4, steps);
    const std::string key = "base parallelograms     : ";
    const auto at = text.find(key);
    ASSERT_NE(at, std::string::npos) << text;
    const long explained = std::stol(text.substr(at + key.size()));
    EXPECT_NE(text.find("rows whole in x"), std::string::npos) << text;

    schemes::RunConfig cfg;
    cfg.num_threads = 4;
    cfg.timesteps = steps;
    core::Problem problem(shape, core::StencilSpec::paper_3d7p());
    const auto run = schemes::make_scheme("nuCORALS")->run(problem, cfg);
    EXPECT_EQ(run.details.at("tau"), 5.0);
    EXPECT_EQ(static_cast<double>(explained), run.details.at("bases_per_layer"))
        << steps << " steps";
  }
}

TEST(Explain, NuCatsWavefrontFitsCache) {
  const std::string text = schemes::describe_plan(
      "nuCATS", Coord{160, 160, 160}, core::StencilSpec::paper_3d7p(), kXeon, 32, 100);
  EXPECT_NE(text.find("temporal chunk Tc       : 100"), std::string::npos) << text;
  EXPECT_NE(text.find("owner-matched"), std::string::npos);
  const std::string cats = schemes::describe_plan(
      "CATS", Coord{160, 160, 160}, core::StencilSpec::paper_3d7p(), kXeon, 32, 100);
  EXPECT_NE(cats.find("round-robin"), std::string::npos);
}

TEST(Explain, NuCatsTileCountMatchesRun) {
  // --explain plans through the same plan_cats call as the run, schedule
  // included.  On 128x64x16 with 4 threads the Static plan has 4 tiles;
  // stealing refines it 2x, where 8-row planes of 1024 cells meet the
  // per-call floor (4x and 3x would not).
  const Coord shape{128, 64, 16};
  for (const auto schedule : {sched::Schedule::Static, sched::Schedule::Steal}) {
    const std::string text = schemes::describe_plan(
        "nuCATS", shape, core::StencilSpec::paper_3d7p(), kXeon, 4, 4, schedule);
    const std::string key = "z-segment(s) = ";
    const auto at = text.find(key);
    ASSERT_NE(at, std::string::npos) << text;
    const long explained = std::stol(text.substr(at + key.size()));
    EXPECT_EQ(explained, schedule == sched::Schedule::Steal ? 8 : 4) << text;

    const auto scheme = schemes::make_scheme("nuCATS");
    schemes::RunConfig cfg;
    cfg.num_threads = 4;
    cfg.timesteps = 4;
    cfg.boundary = scheme->default_boundary();
    cfg.schedule = schedule;
    core::Problem problem(shape, core::StencilSpec::paper_3d7p());
    const auto run = scheme->run(problem, cfg);
    EXPECT_EQ(static_cast<double>(explained), run.details.at("tiles"))
        << sched::schedule_name(schedule);
  }
}

TEST(Explain, MwdWindowsMatchTheRun) {
  // 2 groups of 2 on a 16-cell ring: tau 4, so 13 steps run as windows
  // 0-4, 5-8 and 9-12, one layer span each on every worker.
  const Coord shape{40, 36, 16};
  const std::string text = schemes::describe_plan(
      "nuMWD", shape, core::StencilSpec::paper_3d7p(), kXeon, 4, 13,
      sched::Schedule::Static, /*group_size=*/2);
  EXPECT_NE(text.find("windows                 : 3 (window 0 = steps 0-4, then 4 step(s) each)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("window order            : ring wavefront, each growing column right "
                      "after its two shrinking neighbours"),
            std::string::npos)
      << text;

  for (const auto schedule : {sched::Schedule::Static, sched::Schedule::Steal}) {
    SCOPED_TRACE(sched::schedule_name(schedule));
    trace::Trace trace;
    schemes::RunConfig cfg;
    cfg.num_threads = 4;
    cfg.timesteps = 13;
    cfg.group_size = 2;
    cfg.schedule = schedule;
    cfg.trace = &trace;
    core::Problem problem(shape, core::StencilSpec::paper_3d7p());
    const auto run = schemes::make_scheme("nuMWD")->run(problem, cfg);
    EXPECT_EQ(run.details.at("tau"), 4.0);
    std::set<int> windows;
    for (int tid = 0; tid < 4; ++tid) {
      for (const trace::Event& e : trace.thread(tid)->events())
        if (e.phase == trace::Phase::Layer) windows.insert(e.args.a);
      const std::uint64_t layers = trace.thread(tid)->span_count(trace::Phase::Layer);
      if (schedule == sched::Schedule::Static) {
        EXPECT_EQ(layers, 3u) << "tid " << tid;
      } else {
        // A leader that steals another group's task of a different window
        // opens an extra layer; its member follows its commands.
        EXPECT_EQ(layers, trace.thread(tid - tid % 2)->span_count(trace::Phase::Layer))
            << "tid " << tid;
      }
    }
    EXPECT_EQ(windows, (std::set<int>{0, 1, 2}));
  }
}

TEST(PinPolicy, CompactFillsSocketsFirst) {
  numa::VirtualTopology compact(kXeon, numa::PinPolicy::Compact);
  EXPECT_EQ(compact.node_of_thread(0), 0);
  EXPECT_EQ(compact.node_of_thread(7), 0);
  EXPECT_EQ(compact.node_of_thread(8), 1);
}

TEST(PinPolicy, ScatterRoundRobinsAcrossSockets) {
  numa::VirtualTopology scatter(kXeon, numa::PinPolicy::Scatter);
  EXPECT_EQ(scatter.node_of_thread(0), 0);
  EXPECT_EQ(scatter.node_of_thread(1), 1);
  EXPECT_EQ(scatter.node_of_thread(3), 3);
  EXPECT_EQ(scatter.node_of_thread(4), 0);
}

TEST(PinPolicy, ScatterEngagesAllNodesAtLowThreadCounts) {
  schemes::RunConfig cfg;
  cfg.num_threads = 4;
  cfg.timesteps = 4;
  cfg.instrument = true;
  cfg.pin_policy = numa::PinPolicy::Scatter;
  cfg.page_bytes = 256;  // avoid page-granularity artifacts on the tiny domain
  core::Problem problem(Coord{24, 24, 24}, core::StencilSpec::paper_3d7p());
  const auto run = schemes::make_scheme("NaiveSSE")->run(problem, cfg);
  int active = 0;
  for (auto b : run.traffic.bytes_from_node)
    if (b > 0) ++active;
  EXPECT_EQ(active, 4) << "scatter must put demand on every Xeon node";
}

}  // namespace
}  // namespace nustencil
