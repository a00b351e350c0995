// Sense-reversing centralized barrier.
//
// The paper synchronises all threads with pthread barriers at the boundary
// of each layer of space-time slices ("global synchronisation").  We use a
// sense-reversing barrier that spins with a yield so that oversubscribed
// runs (more threads than hardware cores, the normal case on the 1-core CI
// host) make progress instead of livelocking.
#pragma once

#include <atomic>
#include <functional>
#include <thread>

#include "common/error.hpp"
#include "thread/abort.hpp"
#include "trace/trace.hpp"

namespace nustencil::threading {

class Barrier {
 public:
  explicit Barrier(int participants) : participants_(participants) {
    NUSTENCIL_CHECK(participants >= 1, "Barrier: participants must be >= 1");
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all participants have arrived.  When `abort` is given
  /// and triggers, throws instead of spinning forever (the barrier is then
  /// in teardown and must not be reused).  When `rec` is given, every
  /// participant that actually waits records a barrier-wait span with its
  /// spin-iteration count (the releasing arrival records nothing); a null
  /// recorder costs one branch.  `on_release`, when set, runs on the
  /// releasing arrival while every other participant is still waiting.
  void arrive_and_wait(const AbortToken* abort = nullptr,
                       trace::ThreadRecorder* rec = nullptr,
                       const std::function<void()>& on_release = {}) {
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
      if (on_release) on_release();
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
    } else {
      const std::int64_t start = rec ? rec->now_ns() : 0;
      std::uint64_t spins = 0;
      while (sense_.load(std::memory_order_acquire) != my_sense) {
        ++spins;
        if (abort) abort->check();
        std::this_thread::yield();
      }
      if (rec)
        rec->record(trace::Phase::BarrierWait, start, rec->now_ns(), {}, spins);
    }
  }

 private:
  const int participants_;
  std::atomic<int> arrived_{0};
  std::atomic<bool> sense_{false};
};

}  // namespace nustencil::threading
