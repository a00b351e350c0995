// Hardware counter subsystem, driven entirely by the programmable fake
// backend so every path — multiplex scaling, counter wrap-around, the
// span-delta exactness invariant, degraded-mode report contents and the
// off-mode zero-syscall guarantee — is green without perf permissions.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cachesim/shared.hpp"
#include "common/error.hpp"
#include "hwc/events.hpp"
#include "hwc/fake_backend.hpp"
#include "hwc/group.hpp"
#include "hwc/validate.hpp"
#include "metrics/json.hpp"
#include "metrics/run_report.hpp"
#include "schemes/scheme.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace nustencil {
namespace {

using hwc::Event;
using hwc::FakeBackend;
using hwc::Mode;
using hwc::ThreadSet;

constexpr int kThreads = 2;
constexpr Index kEdge = 20;
constexpr long kSteps = 4;

const topology::MachineSpec& machine() {
  static const topology::MachineSpec m = topology::xeonX7550();
  return m;
}

// ---------------------------------------------------------------------------
// Event and mode parsing

TEST(HwcEvents, ParseIsCaseInsensitiveAndAcceptsUnderscores) {
  EXPECT_EQ(hwc::parse_event("cycles"), Event::Cycles);
  EXPECT_EQ(hwc::parse_event("CYCLES"), Event::Cycles);
  EXPECT_EQ(hwc::parse_event("Cache-Misses"), Event::CacheMisses);
  EXPECT_EQ(hwc::parse_event("cache_misses"), Event::CacheMisses);
  EXPECT_EQ(hwc::parse_event("task_clock"), Event::TaskClock);
}

TEST(HwcEvents, ParseRejectsUnknownNamingAllValidValues) {
  try {
    hwc::parse_event("nope");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nope'"), std::string::npos);
    // The message must enumerate the full vocabulary.
    for (int i = 0; i < hwc::kNumEvents; ++i)
      EXPECT_NE(what.find(hwc::event_name(static_cast<Event>(i))),
                std::string::npos)
          << hwc::event_name(static_cast<Event>(i));
  }
}

TEST(HwcEvents, ParseListRejectsDuplicatesAndEmptyItems) {
  const std::vector<Event> two = hwc::parse_event_list("cycles,page-faults");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], Event::Cycles);
  EXPECT_EQ(two[1], Event::PageFaults);
  EXPECT_THROW(hwc::parse_event_list("cycles,cycles"), Error);
  EXPECT_THROW(hwc::parse_event_list("cycles,,instructions"), Error);
}

TEST(HwcEvents, ParseModeIsCaseInsensitive) {
  EXPECT_EQ(hwc::parse_mode("auto"), Mode::Auto);
  EXPECT_EQ(hwc::parse_mode("AUTO"), Mode::Auto);
  EXPECT_EQ(hwc::parse_mode("On"), Mode::On);
  EXPECT_EQ(hwc::parse_mode("OFF"), Mode::Off);
  try {
    hwc::parse_mode("bogus");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'bogus'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("auto, on or off"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// ThreadSet against the fake backend

TEST(HwcThreadSet, OffModeMakesZeroSyscalls) {
  FakeBackend fake;
  ThreadSet set(fake, Mode::Off, {}, kThreads);
  EXPECT_FALSE(set.active());
  set.attach(0);
  set.detach(0);
  trace::CounterSet out;
  set.sample(0, out);
  EXPECT_EQ(fake.total_opens(), 0);
  EXPECT_EQ(fake.total_reads(), 0);
  const hwc::HwRunStats s = set.stats();
  EXPECT_FALSE(s.enabled);
  EXPECT_EQ(s.status, "off");
}

TEST(HwcThreadSet, ProbeFixesAvailabilityAndClosesItsFds) {
  FakeBackend fake;
  ThreadSet set(fake, Mode::Auto, {}, kThreads);
  EXPECT_TRUE(set.active());
  EXPECT_EQ(set.probe().status, "ok");
  // The probe opens and closes one fd per event; nothing stays open
  // until a worker attaches.
  EXPECT_EQ(fake.open_fds(), 0);
}

TEST(HwcThreadSet, MissingOptionalEventDoesNotDegrade) {
  FakeBackend fake;
  fake.set_unavailable(Event::StalledCycles, ENOENT);
  ThreadSet set(fake, Mode::Auto, {}, kThreads);
  EXPECT_EQ(set.probe().status, "ok");
  EXPECT_FALSE(set.probe().available(Event::StalledCycles));
  EXPECT_TRUE(set.probe().available(Event::Cycles));
}

TEST(HwcThreadSet, FullyDegradedHostReportsWhy) {
  FakeBackend fake;
  fake.fail_all(EACCES);
  fake.set_paranoid(3);
  ThreadSet set(fake, Mode::Auto, {}, kThreads);
  EXPECT_FALSE(set.active());
  EXPECT_EQ(set.probe().status, "degraded");
  EXPECT_NE(set.probe().reason.find("perf_event_paranoid=3"),
            std::string::npos);
  // attach/sample on a dead set must be safe no-ops.
  set.attach(0);
  trace::CounterSet out;
  set.sample(0, out);
  set.detach(0);
}

TEST(HwcThreadSet, SampleWritesCumulativeCountsIntoHwSlots) {
  FakeBackend fake;
  fake.set_increment(Event::Cycles, 7);
  ThreadSet set(fake, Mode::Auto, {Event::Cycles}, 1);
  set.attach(0);
  trace::CounterSet a, b;
  set.sample(0, a);
  set.sample(0, b);
  const auto slot = hwc::event_slot(Event::Cycles);
  EXPECT_EQ(b.at(slot) - a.at(slot), 7u);
  set.detach(0);
}

TEST(HwcThreadSet, MultiplexScalingIsReportedNotApplied) {
  FakeBackend fake;
  // time_enabled advances 3x faster than time_running: the PMU ran this
  // group a third of the time.
  fake.set_time_advance(3000, 1000);
  fake.set_increment(Event::Cycles, 11);
  ThreadSet set(fake, Mode::Auto, {Event::Cycles}, 1);
  set.attach(0);
  trace::CounterSet s;
  set.sample(0, s);
  const hwc::HwRunStats stats = set.stats();
  ASSERT_EQ(stats.threads.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.threads[0].scaling, 3.0);
  EXPECT_TRUE(stats.threads[0].multiplexed);
  EXPECT_DOUBLE_EQ(stats.max_scaling(), 3.0);
  // Raw counts: one sample read + one stats read = two increments, NOT
  // multiplied by the scaling factor.
  EXPECT_EQ(stats.threads[0].total[static_cast<std::size_t>(Event::Cycles)],
            22u);
}

TEST(HwcThreadSet, CounterWrapAroundDeltasStayExact) {
  FakeBackend fake;
  fake.set_increment(Event::Cycles, 40);
  fake.set_initial_value(Event::Cycles,
                         std::numeric_limits<std::uint64_t>::max() - 60);
  ThreadSet set(fake, Mode::Auto, {Event::Cycles}, 1);
  set.attach(0);
  trace::CounterSet s0, s1, s2;
  const auto slot = hwc::event_slot(Event::Cycles);
  set.sample(0, s0);  // max - 20
  set.sample(0, s1);  // wraps to 19
  set.sample(0, s2);  // 59
  // Unsigned subtraction makes each span delta exact across the wrap.
  EXPECT_EQ(s1.at(slot) - s0.at(slot), 40u);
  EXPECT_EQ(s2.at(slot) - s1.at(slot), 40u);
  set.detach(0);
}

// ---------------------------------------------------------------------------
// Whole-run integration: a real scheme with the fake backend injected

schemes::RunResult run_with_fake(FakeBackend& fake, trace::Trace* tr,
                                 cachesim::SharedHierarchy* sim,
                                 Mode mode = Mode::Auto) {
  const auto scheme = schemes::make_scheme("nuCATS");
  schemes::RunConfig cfg;
  cfg.num_threads = kThreads;
  cfg.timesteps = kSteps;
  cfg.instrument = true;
  cfg.machine = &machine();
  cfg.boundary = scheme->default_boundary();
  cfg.trace = tr;
  cfg.cache_sim = sim;
  cfg.profile_spans = tr != nullptr;
  cfg.hw_mode = mode;
  cfg.hw_backend = &fake;
  core::Problem problem(Coord{kEdge, kEdge, kEdge},
                        core::StencilSpec::paper_3d7p());
  return scheme->run(problem, cfg);
}

TEST(HwcRun, OffModeTouchesTheBackendNotAtAll) {
  FakeBackend fake;
  trace::Trace tr;
  run_with_fake(fake, &tr, nullptr, Mode::Off);
  EXPECT_EQ(fake.total_opens(), 0);
  EXPECT_EQ(fake.total_reads(), 0);
}

TEST(HwcRun, SpanDeltasSumExactlyToAttributedTotals) {
  FakeBackend fake;
  trace::Trace tr;
  const schemes::RunResult run = run_with_fake(fake, &tr, nullptr);
  ASSERT_EQ(run.hw.status, "ok");
  ASSERT_EQ(run.hw.backend, "fake");
  ASSERT_EQ(run.hw.threads.size(), static_cast<std::size_t>(kThreads));

  // Sum of every hw span delta held in the event rings, per thread.
  for (int tid = 0; tid < kThreads; ++tid) {
    trace::CounterSet ring_sum;
    for (const trace::Event& e : tr.thread(tid)->events())
      if (e.has_counters) ring_sum.accumulate(e.counters);
    for (const Event ev : hwc::default_events()) {
      const std::uint64_t attributed =
          run.hw.threads[static_cast<std::size_t>(tid)]
              .attributed[static_cast<std::size_t>(ev)];
      EXPECT_EQ(ring_sum.at(hwc::event_slot(ev)), attributed)
          << "tid " << tid << " event " << hwc::event_name(ev);
    }
  }
  // Run-level attributed is the thread sum, and never exceeds the
  // whole-region total (barriers and scheduling are measured but belong
  // to no compute span).
  for (const Event ev : hwc::default_events()) {
    const auto i = static_cast<std::size_t>(ev);
    std::uint64_t thread_sum = 0;
    for (const auto& t : run.hw.threads) thread_sum += t.attributed[i];
    EXPECT_EQ(run.hw.attributed[i], thread_sum);
    EXPECT_LE(run.hw.attributed[i], run.hw.totals[i])
        << hwc::event_name(ev);
    EXPECT_GT(run.hw.totals[i], 0u) << hwc::event_name(ev);
  }
}

TEST(HwcRun, DegradedRunSucceedsAndTheReportSaysWhy) {
  FakeBackend fake;
  fake.fail_all(EACCES);
  fake.set_paranoid(2);
  trace::Trace tr;
  const schemes::RunResult run = run_with_fake(fake, &tr, nullptr);
  EXPECT_GT(run.updates, 0);  // the run itself is unharmed
  EXPECT_EQ(run.hw.status, "degraded");
  EXPECT_NE(run.hw.reason.find("perf_event_paranoid=2"), std::string::npos);
  EXPECT_FALSE(run.hw.any_available());

  // The serialised report carries the same story.
  metrics::RunReport rep;
  rep.scheme = "nuCATS";
  rep.shape = "20x20x20";
  rep.machine = &machine();
  rep.hw = &run.hw;
  const metrics::JsonValue doc =
      metrics::parse_json(metrics::run_report_json(rep));
  const metrics::JsonValue& hw = doc.at("hw");
  EXPECT_TRUE(hw.at("enabled").boolean_value());
  EXPECT_EQ(hw.at("status").str(), "degraded");
  EXPECT_NE(hw.at("reason").str().find("perf_event_paranoid"),
            std::string::npos);
  EXPECT_EQ(hw.at("paranoid").num(), 2);
  for (const metrics::JsonValue& e : hw.at("events").array) {
    EXPECT_FALSE(e.at("available").boolean_value());
    EXPECT_FALSE(e.at("reason").str().empty());
  }
}

TEST(HwcRun, OkRunReportCarriesRawTotalsAndScaling) {
  FakeBackend fake;
  fake.set_time_advance(2000, 1000);  // scaling 2.0 on every thread
  trace::Trace tr;
  const schemes::RunResult run = run_with_fake(fake, &tr, nullptr);
  metrics::RunReport rep;
  rep.scheme = "nuCATS";
  rep.shape = "20x20x20";
  rep.machine = &machine();
  rep.hw = &run.hw;
  const metrics::JsonValue doc =
      metrics::parse_json(metrics::run_report_json(rep));
  const metrics::JsonValue& hw = doc.at("hw");
  EXPECT_EQ(hw.at("status").str(), "ok");
  for (const metrics::JsonValue& t : hw.at("threads").array) {
    EXPECT_DOUBLE_EQ(t.at("scaling").num(), 2.0);
    EXPECT_TRUE(t.at("multiplexed").boolean_value());
  }
  // Totals are per-event maps keyed by name, raw counts only.
  for (const Event ev : hwc::default_events())
    EXPECT_EQ(hw.at("totals").at(hwc::event_name(ev)).num(),
              static_cast<double>(
                  run.hw.totals[static_cast<std::size_t>(ev)]));
}

// ---------------------------------------------------------------------------
// Simulated-vs-measured validation

TEST(HwcValidate, SpearmanHandlesPerfectInverseAndTies) {
  EXPECT_DOUBLE_EQ(hwc::spearman({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
  EXPECT_DOUBLE_EQ(hwc::spearman({1, 2, 3, 4}, {40, 30, 20, 10}), -1.0);
  EXPECT_DOUBLE_EQ(hwc::spearman({1, 2}, {5, 5}), 0.0);  // constant side
  EXPECT_DOUBLE_EQ(hwc::spearman({1}, {2}), 0.0);        // too few points
  // Ties get average ranks; a monotone relation survives them.
  EXPECT_GT(hwc::spearman({1, 1, 2, 3}, {5, 6, 7, 8}), 0.8);
}

TEST(HwcRun, ValidationCorrelatesSimulatedAndMeasuredMisses) {
  FakeBackend fake;
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  const schemes::RunResult run = run_with_fake(fake, &tr, &sim);
  ASSERT_EQ(run.hw.status, "ok");
  ASSERT_TRUE(run.hw.validation.has_value());
  EXPECT_EQ(run.hw.validation->status, "ok");
  EXPECT_GE(run.hw.validation->n, 2);
  EXPECT_GE(run.hw.validation->spearman, -1.0);
  EXPECT_LE(run.hw.validation->spearman, 1.0);
  EXPECT_FALSE(run.hw.validation->points.empty());
  EXPECT_LE(run.hw.validation->points.size(), 256u);
}

TEST(HwcRun, ValidationAbsentWhenCacheMissesUnavailable) {
  FakeBackend fake;
  fake.set_unavailable(Event::CacheMisses, ENOENT);
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  const schemes::RunResult run = run_with_fake(fake, &tr, &sim);
  EXPECT_EQ(run.hw.status, "degraded");
  EXPECT_FALSE(run.hw.validation.has_value());
}

}  // namespace
}  // namespace nustencil
