// Per-span performance attribution: the exactness invariant (per-span
// counter deltas sum to the run-wide instrumentation totals, in the event
// rings and in the exported Chrome trace), the straggler verdicts and the
// --progress heartbeat thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "cachesim/shared.hpp"
#include "common/error.hpp"
#include "metrics/json.hpp"
#include "numa/traffic.hpp"
#include "prof/attribution.hpp"
#include "prof/counter_shard.hpp"
#include "prof/progress.hpp"
#include "schemes/cats_common.hpp"
#include "schemes/mwd_common.hpp"
#include "schemes/run_support.hpp"
#include "schemes/scheme.hpp"
#include "test_util.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace nustencil {
namespace {

constexpr int kThreads = 2;
constexpr Index kEdge = 20;
constexpr long kSteps = 4;

const topology::MachineSpec& machine() {
  static const topology::MachineSpec m = topology::xeonX7550();
  return m;
}

/// Runs `name` with every instrumentation source attached (traffic
/// recorder, cache simulator, trace with the per-span sampler) so the
/// resulting events carry full counter deltas.
schemes::RunResult run_profiled(const std::string& name,
                                sched::Schedule schedule, trace::Trace& tr,
                                cachesim::SharedHierarchy& sim,
                                int threads = kThreads) {
  const auto scheme = schemes::make_scheme(name);
  schemes::RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = kSteps;
  cfg.instrument = true;
  cfg.schedule = schedule;
  cfg.cache_sim = &sim;
  cfg.machine = &machine();
  // Scatter across sockets so remote traffic (and hence the Remote
  // counters) is exercised, mirroring bench/regress.
  cfg.pin_policy = numa::PinPolicy::Scatter;
  cfg.trace = &tr;
  cfg.profile_spans = true;
  cfg.boundary = scheme->default_boundary();
  core::Problem problem(Coord{kEdge, kEdge, kEdge},
                        core::StencilSpec::paper_3d7p());
  return scheme->run(problem, cfg);
}

/// Sum of every per-span counter delta held in the event rings.
trace::CounterSet sum_event_deltas(const trace::Trace& tr) {
  trace::CounterSet sum;
  for (int tid = 0; tid < tr.num_threads(); ++tid)
    for (const trace::Event& e : tr.thread(tid)->events())
      if (e.has_counters) sum.accumulate(e.counters);
  return sum;
}

/// Sum of the out-of-ring per-phase counter accumulators.
trace::CounterSet sum_counter_totals(const trace::Trace& tr) {
  trace::CounterSet sum;
  for (int tid = 0; tid < tr.num_threads(); ++tid)
    for (int p = 0; p < trace::kNumPhases; ++p)
      sum.accumulate(
          tr.thread(tid)->counter_total(static_cast<trace::Phase>(p)));
  return sum;
}

/// Sum of the counter args of the "X" (complete) events in the Chrome
/// trace the run exports: the per-span weights a trace viewer reads.
trace::CounterSet sum_chrome_span_args(const trace::Trace& tr) {
  std::ostringstream os;
  tr.write_chrome_json(os);
  const metrics::JsonValue doc = metrics::parse_json(os.str());
  trace::CounterSet sum;
  for (const metrics::JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str() != "X") continue;
    const metrics::JsonValue& args = e.at("args");
    for (int i = 0; i < trace::kNumSpanCounters; ++i)
      if (const metrics::JsonValue* arg =
              args.find(trace::span_counter_name(static_cast<trace::SpanCounter>(i))))
        sum.v[static_cast<std::size_t>(i)] += static_cast<std::uint64_t>(arg->num());
  }
  return sum;
}

TEST(ProfAttribution, SpanDeltasSumExactlyToRunTotals) {
  for (const std::string name : {"NaiveSSE", "nuCATS", "nuCORALS"}) {
    for (const auto schedule :
         {sched::Schedule::Static, sched::Schedule::Steal}) {
      SCOPED_TRACE(name + (schedule == sched::Schedule::Steal ? "/steal"
                                                              : "/static"));
      trace::Trace tr;
      cachesim::SharedHierarchy sim(machine(), kThreads);
      const schemes::RunResult run = run_profiled(name, schedule, tr, sim);

      // The default ring comfortably holds this small run, so the event
      // deltas are complete and must equal the out-of-ring accumulators.
      for (int tid = 0; tid < tr.num_threads(); ++tid)
        ASSERT_EQ(tr.thread(tid)->dropped(), 0u);
      const trace::CounterSet events = sum_event_deltas(tr);
      const trace::CounterSet totals = sum_counter_totals(tr);
      EXPECT_EQ(events.v, totals.v);

      // ... and both must equal the run-wide instrumentation totals:
      // every update / traffic byte / cache access happens inside a
      // counter-carrying span, so nothing leaks past the sampler.
      EXPECT_EQ(totals.at(trace::SpanCounter::Updates),
                static_cast<std::uint64_t>(run.updates));
      EXPECT_EQ(totals.at(trace::SpanCounter::LocalBytes),
                run.traffic.local_bytes);
      EXPECT_EQ(totals.at(trace::SpanCounter::RemoteBytes),
                run.traffic.remote_bytes);
      EXPECT_EQ(totals.at(trace::SpanCounter::UnownedBytes),
                run.traffic.unowned_bytes);
      const cachesim::HierarchyTraffic ht = sim.traffic();
      const int levels = std::min<int>(trace::CounterSet::kMaxCacheLevels,
                                       static_cast<int>(ht.level.size()));
      for (int l = 0; l < levels; ++l) {
        EXPECT_EQ(totals.level_hits(l), ht.level[l].hits) << "L" << l + 1;
        EXPECT_EQ(totals.level_misses(l), ht.level[l].misses) << "L" << l + 1;
      }

      // The exported Chrome trace carries the same deltas as span args
      // (updates, local/remote/unowned bytes, l*_hits, l*_misses), so they
      // parse back to the same run totals.
      EXPECT_EQ(sum_chrome_span_args(tr).v, totals.v);

      // The summary in RunResult carries the same exact totals.
      ASSERT_TRUE(run.prof.enabled);
      EXPECT_EQ(run.prof.totals.v, totals.v);
      EXPECT_GT(run.prof.sampled_spans, 0u);
      EXPECT_EQ(run.prof.dropped_events, 0u);
    }
  }
}

TEST(ProfAttribution, OnlyTileAndInitSpansCarryCounters) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  run_profiled("nuCORALS", sched::Schedule::Static, tr, sim);
  std::uint64_t carrying = 0;
  for (int tid = 0; tid < tr.num_threads(); ++tid) {
    for (const trace::Event& e : tr.thread(tid)->events()) {
      if (trace::phase_carries_counters(e.phase)) {
        EXPECT_TRUE(e.has_counters) << trace::phase_name(e.phase);
        ++carrying;
      } else {
        EXPECT_FALSE(e.has_counters) << trace::phase_name(e.phase);
      }
    }
  }
  EXPECT_GT(carrying, 0u);
}

prof::SpanRecord tile_span(std::int64_t dur_ns, std::int64_t exclude_ns) {
  prof::SpanRecord s;
  s.phase = trace::Phase::Tile;
  s.start_ns = 0;
  s.end_ns = dur_ns;
  s.exclude_ns = exclude_ns;
  return s;
}

TEST(ProfVerdict, WaitPhasesAreSpinBoundByDefinition) {
  for (const auto p : {trace::Phase::BarrierWait, trace::Phase::SpinWait}) {
    prof::SpanRecord s;
    s.phase = p;
    s.end_ns = 1000;
    const prof::Attribution a = prof::attribute(s);
    EXPECT_EQ(a.verdict, prof::Verdict::SpinBound);
    EXPECT_DOUBLE_EQ(a.spin_frac, 1.0);
  }
}

TEST(ProfVerdict, NestedWaitingDominatesTheSpan) {
  prof::SpanRecord s = tile_span(1000000, 600000);
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::SpinBound);
  EXPECT_DOUBLE_EQ(a.spin_frac, 0.6);
}

TEST(ProfVerdict, RemoteTrafficDominates) {
  prof::SpanRecord s = tile_span(1000, 0);
  s.counters.at(trace::SpanCounter::LocalBytes) = 100;
  s.counters.at(trace::SpanCounter::RemoteBytes) = 900;
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::RemoteTrafficBound);
  EXPECT_DOUBLE_EQ(a.remote_frac, 0.9);
}

TEST(ProfVerdict, DeepestLevelMissesDominate) {
  prof::SpanRecord s = tile_span(1000, 0);
  s.counters.at(trace::SpanCounter::LocalBytes) = 900;
  s.counters.at(trace::SpanCounter::RemoteBytes) = 100;
  s.counters.at(trace::SpanCounter::L1Hits) = 50;
  s.counters.at(trace::SpanCounter::L1Misses) = 50;
  s.counters.at(trace::SpanCounter::L2Hits) = 10;
  s.counters.at(trace::SpanCounter::L2Misses) = 40;
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::CacheMissBound);
  EXPECT_DOUBLE_EQ(a.miss_rate, 0.8);  // L2 is the deepest active level
}

TEST(ProfVerdict, OtherwiseComputeBound) {
  prof::SpanRecord s = tile_span(1000, 100);
  s.counters.at(trace::SpanCounter::LocalBytes) = 900;
  s.counters.at(trace::SpanCounter::RemoteBytes) = 100;
  s.counters.at(trace::SpanCounter::L1Hits) = 95;
  s.counters.at(trace::SpanCounter::L1Misses) = 5;
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::ComputeBound);
  EXPECT_DOUBLE_EQ(a.spin_frac, 0.1);
  EXPECT_DOUBLE_EQ(a.remote_frac, 0.1);
}

TEST(ProfVerdict, NamesAreStable) {
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::ComputeBound),
               "compute-bound");
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::RemoteTrafficBound),
               "remote-traffic-bound");
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::CacheMissBound),
               "cache-miss-bound");
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::SpinBound), "spin-bound");
}

TEST(ProfSummary, StragglersAreTopKSlowestInOrder) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  run_profiled("nuCORALS", sched::Schedule::Static, tr, sim);
  const prof::ProfSummary s = prof::summarize(tr, 8, /*top_k=*/5);
  ASSERT_TRUE(s.enabled);
  ASSERT_LE(s.stragglers.size(), 5u);
  ASSERT_FALSE(s.stragglers.empty());
  for (std::size_t i = 1; i < s.stragglers.size(); ++i)
    EXPECT_GE(s.stragglers[i - 1].span.dur_ns(),
              s.stragglers[i].span.dur_ns());
  for (const prof::Straggler& st : s.stragglers) {
    EXPECT_GT(st.dur_ms, 0.0);
    EXPECT_GT(st.mean_dur_ms, 0.0);
  }
}

TEST(ProfSummary, RooflineIsCappedAndAnnotated) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  run_profiled("nuCORALS", sched::Schedule::Static, tr, sim);
  const prof::ProfSummary s =
      prof::summarize(tr, 8, /*top_k=*/5, /*max_roofline=*/7);
  EXPECT_LE(s.roofline.size(), 7u);
  ASSERT_FALSE(s.roofline.empty());
  for (const prof::RooflinePoint& p : s.roofline) {
    EXPECT_GT(p.ai, 0.0);
    EXPECT_GT(p.gflops, 0.0);
    EXPECT_GE(p.tid, 0);
    EXPECT_LT(p.tid, kThreads);
  }
}

TEST(ProfSummary, DisabledWithoutASampler) {
  trace::Trace tr;
  const prof::ProfSummary empty = prof::summarize(tr, 8);
  EXPECT_FALSE(empty.enabled);
  EXPECT_TRUE(empty.stragglers.empty());

  // A traced-but-unsampled run also reports disabled: spans exist but no
  // counters were attached.
  trace::Trace unsampled;
  unsampled.begin_run(1);
  const prof::ProfSummary s = prof::summarize(unsampled, 8);
  EXPECT_FALSE(s.enabled);
}

/// What executors publish at the end of a tile.
void publish(prof::CounterShard& counters, int tid, std::uint64_t updates,
             std::uint64_t local_bytes, std::uint64_t remote_bytes) {
  counters.store(tid, trace::SpanCounter::Updates, updates);
  counters.store(tid, trace::SpanCounter::LocalBytes, local_bytes);
  counters.store(tid, trace::SpanCounter::RemoteBytes, remote_bytes);
}

TEST(ProfProgress, RenderLineReportsLayerRateLocalityAndCompletion) {
  std::ostringstream os;
  prof::ProgressMeter meter(60.0, os, "nuCORALS t2", 1000);
  prof::CounterShard counters(2);
  publish(counters, 0, 100, 800, 200);
  publish(counters, 1, 150, 600, 400);
  counters.set_layer(3);
  const std::string line = meter.render_line(counters);
  EXPECT_NE(line.find("progress [nuCORALS t2]"), std::string::npos) << line;
  EXPECT_NE(line.find("layer 3"), std::string::npos) << line;
  EXPECT_NE(line.find("M up/s"), std::string::npos) << line;
  // locality = 1400 local / 2000 owned, completion = 250 / 1000.
  EXPECT_NE(line.find("locality 70.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("25.0% done"), std::string::npos) << line;
}

TEST(ProfProgress, LayerIndicatorIsMonotonic) {
  std::ostringstream os;
  prof::ProgressMeter meter(60.0, os, "x");
  prof::CounterShard counters(1);
  counters.set_layer(5);
  counters.set_layer(2);  // late arrival must not move the indicator back
  EXPECT_EQ(counters.layer(), 5);
  EXPECT_NE(meter.render_line(counters).find("layer 5"), std::string::npos);
}

TEST(ProfProgress, FinalBeatReportsEvenOnShortRuns) {
  std::ostringstream os;
  prof::ProgressMeter meter(60.0, os, "short", 100);  // interval >> the test
  prof::CounterShard counters(1);
  publish(counters, 0, 100, 10, 0);
  meter.emit(counters, /*final=*/true);  // the closing beat of stop()
  const std::string out = os.str();
  EXPECT_NE(out.find("(final)"), std::string::npos) << out;
  EXPECT_NE(out.find("100.0% done"), std::string::npos) << out;
}

TEST(ProfProgress, StopEmitsTheFinalLineFromTheStartedShard) {
  std::ostringstream beats;
  prof::ProgressMeter meter(60.0, beats, "rig", /*total_updates=*/400);
  prof::CounterShard counters(2);
  const std::uint64_t before = prof::ProgressMeter::threads_started();
  meter.start(counters);
  EXPECT_EQ(prof::ProgressMeter::threads_started(), before + 1);
  publish(counters, 0, 100, 300, 100);
  publish(counters, 1, 100, 100, 0);
  counters.set_layer(2);
  meter.stop();
  // locality = 400 local / 500 owned, completion = 200 / 400.
  EXPECT_EQ(beats.str().find("progress [rig]: layer 2 | "), 0u) << beats.str();
  EXPECT_NE(beats.str().find("locality 80.0% | 50.0% done (final)\n"),
            std::string::npos)
      << beats.str();
  meter.stop();  // idempotent: no second final line
  EXPECT_EQ(beats.str().find("(final)"), beats.str().rfind("(final)"));
}

TEST(ProfProgress, RealRunFinalLineReportsTheRunTotals) {
  // Live instrumented workers (nuMWD, one two-thread group, traffic and
  // cache simulation, a trace) under a 1 ms heartbeat: once they join,
  // the closing line must show the run's own totals.
  const Coord shape{24, 24, 24};
  const long steps = 8;
  const auto total = static_cast<std::uint64_t>(shape.product() * steps);
  std::ostringstream beats;
  prof::ProgressMeter meter(0.001, beats, "nuMWD t2", total);
  cachesim::SharedHierarchy cache(schemes::default_machine(), 2);
  trace::Trace trace;
  schemes::RunConfig rc;
  rc.num_threads = 2;
  rc.timesteps = steps;
  rc.group_size = 2;
  rc.instrument = true;
  rc.cache_sim = &cache;
  rc.trace = &trace;
  rc.progress = &meter;
  const std::uint64_t before = prof::ProgressMeter::threads_started();
  const schemes::RunResult result = test::expect_matches_reference(
      schemes::MwdScheme(true), shape, core::StencilSpec::paper_3d7p(), rc);
  EXPECT_EQ(prof::ProgressMeter::threads_started(), before + 1);
  ASSERT_EQ(static_cast<std::uint64_t>(result.updates), total);

  const std::string out = beats.str();
  ASSERT_FALSE(out.empty());
  ASSERT_EQ(out.back(), '\n');
  const std::size_t start = out.rfind('\n', out.size() - 2);
  const std::string last = out.substr(start == std::string::npos ? 0 : start + 1);
  EXPECT_EQ(out.find("(final)"), out.rfind("(final)")) << out;
  std::ostringstream locality;
  locality << std::fixed << std::setprecision(1)
           << result.traffic.locality() * 100.0;
  EXPECT_NE(last.find("progress [nuMWD t2]: layer "), std::string::npos) << last;
  EXPECT_NE(last.find("locality " + locality.str() + "% | 100.0% done (final)\n"),
            std::string::npos)
      << last;
}

TEST(ProfProgress, RunWithoutAMeterStartsNoThread) {
  const std::uint64_t before = prof::ProgressMeter::threads_started();
  schemes::RunConfig rc;
  rc.num_threads = 2;
  rc.timesteps = 4;
  const schemes::CatsScheme nucats(true);
  rc.boundary = nucats.default_boundary();
  test::expect_matches_reference(nucats, Coord{16, 12, 14}, core::StencilSpec::paper_3d7p(),
                                 rc);
  // No meter: no heartbeat thread (and no counter shard to read).
  EXPECT_EQ(prof::ProgressMeter::threads_started(), before);
}

TEST(ProfCounterShard, RowsExposePublishedStateToEveryReader) {
  // Thread 1 sits on node 0: one local, one remote and one unowned page,
  // and four cold cache lines.
  numa::PageTable pages(4096);
  const numa::RegionId region = pages.register_region("a", 4096 * 3);
  pages.first_touch_page_start(region, 0, 4096, /*node=*/0);
  pages.first_touch_page_start(region, 4096, 8192, /*node=*/1);
  const topology::MachineSpec machine = topology::xeonX7550();
  numa::VirtualTopology topo(machine);
  numa::TrafficRecorder traffic(pages, topo, 2);
  traffic.account(1, region, 0, 4096 * 3);
  cachesim::SharedHierarchy cache(machine, 2);
  cache.access(1, /*addr=*/0x10000, /*bytes=*/256, /*write=*/false);

  prof::CounterShard counters(2, /*cache_levels=*/3);
  EXPECT_EQ(counters.layer(), -1);
  counters.publish(1, 42, &traffic, &cache);
  counters.set_layer(7);
  trace::CounterSet row;
  row.at(trace::SpanCounter::HwCycles) = 9;  // hardware slots stay as they are
  counters.read(1, row);
  EXPECT_EQ(row.at(trace::SpanCounter::Updates), 42u);
  EXPECT_EQ(row.at(trace::SpanCounter::LocalBytes), 4096u);
  EXPECT_EQ(row.at(trace::SpanCounter::RemoteBytes), 4096u);
  EXPECT_EQ(row.at(trace::SpanCounter::UnownedBytes), 4096u);
  EXPECT_EQ(row.at(trace::SpanCounter::HwCycles), 9u);
  for (int l = 0; l < 3; ++l) EXPECT_EQ(row.level_misses(l), 4u) << l;
  counters.read(0, row);
  EXPECT_EQ(row.at(trace::SpanCounter::Updates), 0u);
  EXPECT_EQ(counters.layer(), 7);
}

TEST(ProfProgress, RejectsNonPositiveIntervalsAndEmptyTeams) {
  std::ostringstream os;
  EXPECT_THROW(prof::ProgressMeter(0.0, os), Error);
  EXPECT_THROW(prof::ProgressMeter(-1.0, os), Error);
  EXPECT_THROW(prof::CounterShard(0), Error);
}

}  // namespace
}  // namespace nustencil
