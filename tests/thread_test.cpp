// Threading substrate: team fork-join, barrier, spin flags, progress
// counters, abort propagation, and the tracing hooks of the sync
// primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "thread/abort.hpp"
#include "thread/barrier.hpp"
#include "thread/spinflag.hpp"
#include "thread/team.hpp"
#include "trace/trace.hpp"

namespace nustencil::threading {
namespace {

TEST(Team, RunsEveryMemberOnce) {
  Team team(8, /*pin=*/false);
  std::vector<std::atomic<int>> hits(8);
  team.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, ReusableAcrossRegions) {
  Team team(4, false);
  std::atomic<int> total{0};
  for (int i = 0; i < 10; ++i) team.run([&](int) { total++; });
  EXPECT_EQ(total.load(), 40);
}

TEST(Team, PropagatesFirstException) {
  Team team(4, false);
  EXPECT_THROW(team.run([&](int tid) {
    if (tid == 2) throw Error("boom");
  }),
               Error);
  // The team survives and remains usable.
  std::atomic<int> total{0};
  team.run([&](int) { total++; });
  EXPECT_EQ(total.load(), 4);
}

TEST(Barrier, SynchronisesPhases) {
  const int n = 6;
  Team team(n, false);
  Barrier barrier(n);
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  team.run([&](int) {
    phase1++;
    barrier.arrive_and_wait();
    if (phase1.load() != n) ok = false;  // all must have passed phase 1
    barrier.arrive_and_wait();
  });
  EXPECT_TRUE(ok.load());
}

TEST(Barrier, ManyRounds) {
  const int n = 4;
  Team team(n, false);
  Barrier barrier(n);
  std::atomic<long> counter{0};
  std::atomic<bool> ok{true};
  team.run([&](int) {
    for (long round = 0; round < 200; ++round) {
      counter++;
      barrier.arrive_and_wait();
      if (counter.load() != n * (round + 1)) ok = false;
      barrier.arrive_and_wait();
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(Barrier, AbortUnblocksWaiters) {
  Team team(2, false);
  Barrier barrier(2);
  AbortToken abort;
  EXPECT_THROW(team.run([&](int tid) {
    if (tid == 0) {
      abort.trigger();
      throw Error("worker 0 failed");
    }
    barrier.arrive_and_wait(&abort);  // must not hang
  }),
               Error);
}

TEST(ProgressCounter, MonotoneAndWaitable) {
  ProgressCounter c;
  EXPECT_EQ(c.current(), 0);
  c.advance_to(3);
  c.advance_to(3);  // idempotent
  EXPECT_EQ(c.current(), 3);
  c.wait_for(2);  // satisfied
  std::thread producer([&] { c.advance_to(10); });
  c.wait_for(10);
  producer.join();
  EXPECT_EQ(c.current(), 10);
}

TEST(ProgressCounter, AbortThrowsOutOfWait) {
  ProgressCounter c;
  AbortToken abort;
  std::thread killer([&] { abort.trigger(); });
  EXPECT_THROW(c.wait_for(100, &abort), Error);
  killer.join();
}

TEST(AbortToken, CheckThrowsOnlyWhenTriggered) {
  AbortToken abort;
  EXPECT_NO_THROW(abort.check());
  abort.trigger();
  EXPECT_THROW(abort.check(), Error);
}

// ---------------------------------------------------------------------
// Tracing hooks of the synchronisation primitives.
// ---------------------------------------------------------------------

TEST(BarrierTrace, EveryRoundRecordsParticipantsMinusOneWaitSpans) {
  const int n = 4;
  const int rounds = 5;
  Team team(n, false);
  Barrier barrier(n);
  trace::Trace trace;
  trace.begin_run(n);
  team.run([&](int tid) {
    for (int round = 0; round < rounds; ++round)
      barrier.arrive_and_wait(nullptr, trace.thread(tid));
  });
  // The releasing arrival records nothing, so exactly n-1 wait spans per
  // round survive across all threads (which thread waits is timing-
  // dependent, the total is not).
  std::uint64_t spans = 0;
  for (int tid = 0; tid < n; ++tid)
    spans += trace.thread(tid)->span_count(trace::Phase::BarrierWait);
  EXPECT_EQ(spans, static_cast<std::uint64_t>(rounds) * (n - 1));
  for (int tid = 0; tid < n; ++tid)
    for (const trace::Event& e : trace.thread(tid)->events()) {
      EXPECT_EQ(e.phase, trace::Phase::BarrierWait);
      EXPECT_GE(e.end_ns, e.start_ns);
    }
}

TEST(ProgressCounterTrace, SatisfiedFastPathRecordsNothing) {
  ProgressCounter c;
  c.advance_to(5);
  trace::Trace trace;
  trace.begin_run(1);
  c.wait_for(3, nullptr, trace.thread(0), /*owner=*/0);
  EXPECT_EQ(trace.thread(0)->span_count(trace::Phase::SpinWait), 0u);
  EXPECT_EQ(trace.thread(0)->events().size(), 0u);
}

TEST(ProgressCounterTrace, BlockedWaitRecordsSpanWithTargetAndOwner) {
  ProgressCounter c;
  trace::Trace trace;
  trace.begin_run(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    c.advance_to(4);
  });
  c.wait_for(4, nullptr, trace.thread(0), /*owner=*/3);
  producer.join();
  const std::vector<trace::Event> events = trace.thread(0)->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, trace::Phase::SpinWait);
  EXPECT_EQ(events[0].args.a, 4);      // wait target
  EXPECT_EQ(events[0].args.owner, 3);  // producing tile/thread
  EXPECT_GE(events[0].spins, 1u);
}

TEST(SyncTrace, NullRecorderAddsNoEventsAndNoSpans) {
  // The no-recorder paths must stay usable (single branch, no clock
  // reads): exercised here exactly as the hot loops call them.
  Barrier barrier(1);
  barrier.arrive_and_wait(nullptr, nullptr);
  ProgressCounter c;
  c.advance_to(1);
  c.wait_for(1, nullptr, nullptr);
  SUCCEED();
}

}  // namespace
}  // namespace nustencil::threading
