// Abort paths: when one worker fails mid-run, every scheme under every
// schedule ends the run promptly with that worker's error — not with the
// "another worker failed first" message of a peer that woke on the abort
// token, and not with a hang.
//
// The failure is injected through the hardware-counter backend, so no
// production hook is needed: with per-span sampling on, a worker reads
// its counter group at both ends of every Init and Tile span.  Those
// spans never nest, so a worker's odd-numbered reads open a span; the
// first worker to reach read `kFailAt` throws there.  Its disable() then
// sleeps, which gives the peers time to reach the team with the generic
// abort error first: the root cause must still win.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>

#include "common/error.hpp"
#include "hwc/fake_backend.hpp"
#include "sched/schedule.hpp"
#include "schemes/scheme.hpp"

namespace nustencil {
namespace {

constexpr int kFailAt = 7;  // the opening read of a worker's fourth span
constexpr const char* kInjected = "injected counter read failure";

/// FakeBackend whose read_group throws once, at one worker's kFailAt-th
/// read, and whose disable() of that worker's group sleeps 50 ms.
class FailingBackend final : public hwc::SyscallBackend {
 public:
  const char* name() const override { return "failing"; }
  bool supported() const override { return true; }
  int open(hwc::Event event, int group_fd) override { return fake_.open(event, group_fd); }
  int enable(int leader_fd) override { return fake_.enable(leader_fd); }
  int disable(int leader_fd) override {
    if (leader_fd == failed_fd_.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return fake_.disable(leader_fd);
  }
  int read_group(int leader_fd, int n_members, hwc::GroupReading& out) override {
    int reads = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      reads = ++reads_[leader_fd];
    }
    int none = -1;
    if (reads == kFailAt && failed_fd_.compare_exchange_strong(none, leader_fd))
      throw Error(kInjected);
    return fake_.read_group(leader_fd, n_members, out);
  }
  void close(int fd) override { fake_.close(fd); }
  int paranoid_level() const override { return fake_.paranoid_level(); }

  bool injected() const { return failed_fd_.load() >= 0; }

 private:
  hwc::FakeBackend fake_;
  std::mutex mu_;
  std::map<int, int> reads_;
  std::atomic<int> failed_fd_{-1};
};

using Case = std::tuple<std::string, sched::Schedule>;

class InjectedFailure : public testing::TestWithParam<Case> {};

TEST_P(InjectedFailure, RootCauseEndsTheRunPromptly) {
  const auto& [name, schedule] = GetParam();
  FailingBackend backend;
  schemes::RunConfig cfg;
  cfg.num_threads = 3;
  cfg.timesteps = 6;
  cfg.schedule = schedule;
  cfg.collect_phase_metrics = true;
  cfg.hw_mode = hwc::Mode::Auto;
  cfg.hw_backend = &backend;
  const auto scheme = schemes::make_scheme(name);
  cfg.boundary = scheme->default_boundary();
  core::Problem problem(Coord{24, 20, 18}, core::StencilSpec::paper_3d7p());

  const auto start = std::chrono::steady_clock::now();
  std::string message;
  try {
    scheme->run(problem, cfg);
  } catch (const Error& e) {
    message = e.what();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(backend.injected()) << "no worker reached read " << kFailAt;
  EXPECT_NE(message.find(kInjected), std::string::npos)
      << "the run reported '" << message << "' instead of the injected failure";
  EXPECT_LT(seconds, 5.0);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* name :
       {"NaiveSSE", "Pochoir", "CATS", "nuCATS", "CORALS", "nuCORALS", "MWD", "nuMWD"})
    for (const auto schedule : {sched::Schedule::Static, sched::Schedule::Steal})
      cases.emplace_back(name, schedule);
  // PLuTo's diamonds run only under the static schedule.
  cases.emplace_back("PLuTo", sched::Schedule::Static);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(EverySchemeAndSchedule, InjectedFailure,
                         testing::ValuesIn(all_cases()), [](const auto& info) {
                           return std::get<0>(info.param) + "_" +
                                  sched::schedule_name(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace nustencil
