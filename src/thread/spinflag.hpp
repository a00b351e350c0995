// Spin-wait synchronisation ("local synchronisation" in the paper).
//
// A producer publishes how far it has got through a monotone
// ProgressCounter; a consumer spin-waits until the counter reaches the
// epoch it needs.  CORALS/nuCORALS keep one counter per thread tile (the
// number of (base, step) pairs done, in the tile's fixed execution
// order), CATS/nuCATS one per tile (the last finished sweep position;
// only the two halves of a z-split plan also publish per-step codes) and
// MWD one per diamond column (completed steps).  The stealing schedules
// probe the same counters without blocking (current() >= need).
#pragma once

#include <atomic>
#include <thread>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "thread/abort.hpp"
#include "trace/trace.hpp"

namespace nustencil::threading {

/// A monotonically increasing progress counter (one per pipeline stage),
/// padded to its own cache line.
class ProgressCounter {
 public:
  void reset() { value_.store(0, std::memory_order_relaxed); }

  /// Publish that progress has reached at least `v`.
  void advance_to(long v) {
    NUSTENCIL_DCHECK(v >= value_.load(std::memory_order_relaxed),
                     "ProgressCounter must be monotone");
    value_.store(v, std::memory_order_release);
  }

  long current() const { return value_.load(std::memory_order_acquire); }

  /// Spin (with yield) until the counter reaches at least `v`; throws on
  /// abort.  A recorder, when given, receives a spinflag-wait span (wait
  /// target `v`, `owner` = producing thread/tile) only when the counter
  /// was not already there — the satisfied fast path stays clock-free.
  void wait_for(long v, const AbortToken* abort = nullptr,
                trace::ThreadRecorder* rec = nullptr,
                std::int32_t owner = -1) const {
    if (current() >= v) return;
    const std::int64_t start = rec ? rec->now_ns() : 0;
    std::uint64_t spins = 0;
    while (current() < v) {
      ++spins;
      if (abort) abort->check();
      std::this_thread::yield();
    }
    if (rec)
      rec->record(trace::Phase::SpinWait, start, rec->now_ns(),
                  {static_cast<std::int32_t>(v), -1, -1, owner}, spins);
  }

 private:
  alignas(kCacheLineBytes) std::atomic<long> value_{0};
};

}  // namespace nustencil::threading
