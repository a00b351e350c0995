// Cooperative abort for spin-synchronised worker teams.
//
// When one worker throws (e.g. a dependency-checker violation), the others
// would spin forever on barriers or progress counters.  Every blocking
// primitive therefore polls an AbortToken and converts a triggered abort
// into an exception, so the whole team unwinds and the first error
// propagates to the caller.
#pragma once

#include <atomic>

#include "common/error.hpp"

namespace nustencil::threading {

class AbortToken {
 public:
  /// Triggers the token; true for the one call that triggered it first.
  bool trigger() { return !triggered_.exchange(true, std::memory_order_acq_rel); }

  bool triggered() const { return triggered_.load(std::memory_order_acquire); }

  /// Throws when the token has been triggered by another worker.
  void check() const {
    if (triggered()) throw Error("worker aborted: another worker failed first");
  }

 private:
  std::atomic<bool> triggered_{false};
};

}  // namespace nustencil::threading
