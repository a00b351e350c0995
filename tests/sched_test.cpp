// Task pool: TaskPool unit tests (victim ranking, owner-first order,
// far-end stealing, greedy stepping and re-enqueue of blocked tasks,
// layered task lists, the thief-free static round-robin) and the two scheme-level guarantees of
// --schedule=steal — bit-identical results and dependency safety under
// forced stealing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "sched/pool.hpp"
#include "sched/schedule.hpp"
#include "schemes/scheme.hpp"
#include "test_util.hpp"
#include "topology/machine.hpp"

namespace nustencil {
namespace {

using sched::Schedule;
using sched::StepResult;
using sched::TaskPool;

TEST(Schedule, ParseAndName) {
  EXPECT_EQ(sched::parse_schedule("static"), Schedule::Static);
  EXPECT_EQ(sched::parse_schedule("steal"), Schedule::Steal);
  EXPECT_EQ(sched::parse_schedule("steal_local"), Schedule::StealLocal);
  EXPECT_THROW(sched::parse_schedule("greedy"), Error);
  // Case-insensitive like --scheme and --kernel; a bad value is a user
  // error, reported without the failed expression and source location.
  EXPECT_EQ(sched::parse_schedule("Steal_Local"), Schedule::StealLocal);
  try {
    sched::parse_schedule("stealing");
    ADD_FAILURE() << "parse_schedule accepted 'stealing'";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown schedule 'stealing' (expected static, steal or steal_local)");
  }
  EXPECT_STREQ(sched::schedule_name(Schedule::Steal), "steal");
}

TEST(Schedule, ThreadNodesMirrorPinning) {
  const topology::MachineSpec m = topology::xeonX7550();
  const auto scatter = sched::thread_nodes(m, numa::PinPolicy::Scatter, 6);
  for (int tid = 0; tid < 6; ++tid)
    EXPECT_EQ(scatter[static_cast<std::size_t>(tid)], tid % m.numa_nodes());
  const auto compact = sched::thread_nodes(m, numa::PinPolicy::Compact, 4);
  for (int tid = 0; tid < 4; ++tid)
    EXPECT_EQ(compact[static_cast<std::size_t>(tid)], m.node_of_core(tid));
}

TEST(TaskPool, VictimOrderRanksByNumaDistance) {
  const TaskPool pool(4, {0, 1, 2, 3}, Schedule::Steal);
  // Thread 0: nodes 1, 2, 3 in increasing distance.
  EXPECT_EQ(pool.victim_order(0), (std::vector<int>{1, 2, 3}));
  // Thread 2: threads 1 and 3 tie at distance 1; the ring distance from
  // the thief breaks the tie (3 is one ahead, 1 is three ahead).
  EXPECT_EQ(pool.victim_order(2), (std::vector<int>{3, 1, 0}));
}

TEST(TaskPool, StealLocalDropsForeignNodes) {
  const TaskPool pool(4, {0, 0, 1, 1}, Schedule::StealLocal);
  EXPECT_EQ(pool.victim_order(0), (std::vector<int>{1}));
  EXPECT_EQ(pool.victim_order(2), (std::vector<int>{3}));
  // A lone thread on its node has nobody to steal from.
  const TaskPool lone(2, {0, 1}, Schedule::StealLocal);
  EXPECT_TRUE(lone.victim_order(0).empty());
}

TEST(TaskPool, OwnerDrainsFrontFirst) {
  TaskPool pool(2, {0, 0}, Schedule::Steal);
  pool.reset(5, [](int) { return 0; });
  std::vector<int> order;
  pool.run(0,
           [&](int task, int, bool stolen) {
             EXPECT_FALSE(stolen);
             order.push_back(task);
             return StepResult::Done;
           },
           nullptr, nullptr);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.stats().total_steals(), 0u);
}

TEST(TaskPool, ThiefStealsFromFarEnd) {
  TaskPool pool(2, {0, 0}, Schedule::Steal);
  pool.reset(5, [](int) { return 0; });
  std::vector<int> order;
  // Only the thief runs: every task must arrive via a steal, and in
  // back-to-front order (the far end holds the owner's coldest tiles).
  pool.run(1,
           [&](int task, int, bool stolen) {
             EXPECT_TRUE(stolen);
             order.push_back(task);
             return StepResult::Done;
           },
           nullptr, nullptr);
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
  const sched::SchedStats s = pool.stats();
  EXPECT_EQ(s.threads[1].steals, 5u);
  EXPECT_EQ(s.threads[0].stolen_tasks, 5u);  // credited to the victim
  EXPECT_GE(s.total_attempts(), s.total_steals());
}

TEST(TaskPool, BlockedAndYieldedTasksReenqueueAtOwner) {
  TaskPool pool(2, {0, 0}, Schedule::Steal);
  pool.reset(3, [](int) { return 0; });
  std::vector<int> order;
  int calls0 = 0;
  bool blocked_once = false;
  pool.run(1,
           [&](int task, int, bool) {
             order.push_back(task);
             if (task == 2 && !blocked_once) {
               blocked_once = true;
               return StepResult::Blocked;
             }
             // Task 0 makes progress, then blocks (it yields), then ends.
             if (task == 0 && ++calls0 < 3)
               return calls0 == 1 ? StepResult::Progress : StepResult::Blocked;
             return StepResult::Done;
           },
           nullptr, nullptr);
  // Task 2 is stolen from the back, blocks, returns to the owner's back
  // and is stolen again; task 0 is stepped again at once after its
  // progress, then blocks, comes back and finishes.
  EXPECT_EQ(order, (std::vector<int>{2, 2, 1, 0, 0, 0}));
  EXPECT_TRUE(blocked_once);
  EXPECT_EQ(calls0, 3);
}

TEST(TaskPool, LayeredTasksRequeueAndStealWithinTheFrontLayer) {
  // Layers of 2: {0, 1}, {2, 3}, {4, 5}.  A blocked task is re-probed
  // before any later layer, and a thief takes the back of the front
  // layer, never a later layer's task that waits on it.
  TaskPool pool(2, {0, 0}, Schedule::Steal);
  pool.reset(6, [](int) { return 0; }, 2);
  std::vector<int> order;
  bool blocked_once = false;
  pool.run(0,
           [&](int task, int, bool) {
             order.push_back(task);
             if (task == 0 && !blocked_once) {
               blocked_once = true;
               return StepResult::Blocked;
             }
             return StepResult::Done;
           },
           nullptr, nullptr);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 2, 3, 4, 5}));

  pool.rearm();
  order.clear();
  pool.run(1,
           [&](int task, int, bool stolen) {
             EXPECT_TRUE(stolen);
             order.push_back(task);
             return StepResult::Done;
           },
           nullptr, nullptr);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 3, 2, 5, 4}));
}

TEST(TaskPool, StaticHasNoThievesAndNoStats) {
  const TaskPool pool(3, {0, 0, 0}, Schedule::Static);
  for (int tid = 0; tid < 3; ++tid) EXPECT_TRUE(pool.victim_order(tid).empty());
  EXPECT_FALSE(pool.stats().enabled);
  EXPECT_TRUE(pool.stats().threads.empty());
}

TEST(TaskPool, StaticRoundRobinsOneUnitPerVisit) {
  TaskPool pool(2, {0, 0}, Schedule::Static);
  pool.reset(4, [](int task) { return task == 3 ? 1 : 0; });
  std::vector<int> units(4, 0);
  std::vector<int> order;
  const auto step = [&](int task, int, bool stolen) {
    EXPECT_FALSE(stolen);
    order.push_back(task);
    // Every task is three units long.
    return ++units[static_cast<std::size_t>(task)] < 3 ? StepResult::Progress
                                                       : StepResult::Done;
  };
  // Worker 0 cycles through its own tasks one unit per visit and leaves
  // once its deque is empty, never touching worker 1's task.
  pool.run(0, step, nullptr, nullptr);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2, 0, 1, 2}));
  order.clear();
  pool.run(1, step, nullptr, nullptr);
  EXPECT_EQ(order, (std::vector<int>{3, 3, 3}));
  // Every task retired, so the pool can be armed again.
  EXPECT_NO_THROW(pool.reset(1, [](int) { return 0; }));
}

TEST(TaskPool, TwoWorkersRetireEverythingOnce) {
  TaskPool pool(2, {0, 0}, Schedule::Steal);
  pool.reset(64, [](int task) { return task % 2; });
  std::vector<std::atomic<int>> executed(64);
  for (auto& e : executed) e.store(0);
  const auto worker = [&](int tid) {
    pool.run(tid,
             [&](int task, int, bool) {
               executed[static_cast<std::size_t>(task)].fetch_add(1);
               return StepResult::Done;
             },
             nullptr, nullptr);
  };
  std::thread t1(worker, 1);
  worker(0);
  t1.join();
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
}

// --- Scheme-level guarantees -------------------------------------------

schemes::RunConfig steal_config(Schedule schedule, const schemes::Scheme& scheme) {
  schemes::RunConfig cfg;
  cfg.num_threads = 3;
  cfg.timesteps = 5;
  cfg.schedule = schedule;
  cfg.boundary = scheme.default_boundary();
  return cfg;
}

/// Runs `scheme` on a prime-extent domain and returns the final buffer.
std::vector<double> run_buffer(const std::string& name, Schedule schedule) {
  const auto scheme = schemes::make_scheme(name);
  const schemes::RunConfig cfg = steal_config(schedule, *scheme);
  core::Problem problem(Coord{23, 19, 17}, core::StencilSpec::paper_3d7p());
  const schemes::RunResult r = scheme->run(problem, cfg);
  EXPECT_EQ(r.sched.enabled, schedule != Schedule::Static) << name;
  const core::Field& out = problem.buffer(cfg.timesteps);
  return std::vector<double>(out.data(), out.data() + problem.volume());
}

class ScheduleDeterminism : public testing::TestWithParam<std::string> {};

// Prime extents put tile boundaries in awkward places; all three
// schedules must still produce bit-identical fields, because stealing
// only moves whole tiles between threads and Jacobi updates do not
// depend on the executing thread.
TEST_P(ScheduleDeterminism, StealMatchesStaticBitForBit) {
  const std::vector<double> base = run_buffer(GetParam(), Schedule::Static);
  for (const Schedule s : {Schedule::Steal, Schedule::StealLocal}) {
    const std::vector<double> other = run_buffer(GetParam(), s);
    ASSERT_EQ(base.size(), other.size());
    EXPECT_EQ(std::memcmp(base.data(), other.data(),
                          base.size() * sizeof(double)),
              0)
        << GetParam() << " diverged under " << sched::schedule_name(s);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ScheduleDeterminism,
                         testing::Values("NaiveSSE", "CATS", "nuCATS",
                                         "CORALS", "nuCORALS", "Pochoir", "MWD",
                                         "nuMWD"),
                         [](const auto& info) { return info.param; });

class ScheduleDependencySafety : public testing::TestWithParam<std::string> {};

// With check_dependencies on, every single cell update is validated
// against the space-time dependency order — a tile executing before its
// temporal-blocking predecessors (e.g. because a thief ran it too early)
// aborts the run.
TEST_P(ScheduleDependencySafety, NoTileRunsBeforeItsPredecessors) {
  const auto scheme = schemes::make_scheme(GetParam());
  schemes::RunConfig cfg = steal_config(Schedule::Steal, *scheme);
  cfg.check_dependencies = true;
  test::expect_matches_reference(*scheme, Coord{23, 19, 17},
                                 core::StencilSpec::paper_3d7p(), cfg);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ScheduleDependencySafety,
                         testing::Values("NaiveSSE", "CATS", "nuCATS",
                                         "CORALS", "nuCORALS", "Pochoir", "MWD",
                                         "nuMWD"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace nustencil
