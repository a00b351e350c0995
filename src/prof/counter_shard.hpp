// The run's live counter shard: one cache-line-aligned row per worker
// thread of relaxed atomics, in the trace::SpanCounter slot order
// (Updates … L3Misses), plus the run-wide monotonic-max layer indicator.
//
// The owning executor publishes its row once per tile, at the end of
// Executor::update_box and still inside its Tile span, from its own
// single-writer sources.  Writes are relaxed stores with no
// read-modify-write (plain moves on x86); any thread reads with relaxed
// loads.  Two observers share the rows: per-span attribution (the
// run's trace::CounterSampler) and the --progress heartbeat.  A run
// builds a shard only when one of them is active; otherwise the
// executor's publish is one null-pointer branch.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "cachesim/shared.hpp"
#include "common/aligned.hpp"
#include "common/error.hpp"
#include "numa/traffic.hpp"
#include "trace/trace.hpp"

namespace nustencil::prof {

class CounterShard {
 public:
  /// Slots per row: the simulated counters (the hardware slots are read
  /// from the PMU by their own thread instead).
  static constexpr int kSlots = static_cast<int>(trace::SpanCounter::L3Misses) + 1;

  /// `cache_levels` simulated cache levels ride in the rows (0 = no cache
  /// simulation; clamped to CounterSet::kMaxCacheLevels).
  explicit CounterShard(int num_threads, int cache_levels = 0)
      : cache_levels_(std::clamp(cache_levels, 0, trace::CounterSet::kMaxCacheLevels)) {
    NUSTENCIL_CHECK(num_threads >= 1, "CounterShard: need at least one thread");
    rows_ = std::vector<Row>(static_cast<std::size_t>(num_threads));
  }

  int num_threads() const { return static_cast<int>(rows_.size()); }

  /// Stores one slot of thread `tid`'s row.  Call from thread `tid` only.
  void store(int tid, trace::SpanCounter c, std::uint64_t value) {
    rows_[static_cast<std::size_t>(tid)].v[static_cast<std::size_t>(c)].store(
        value, std::memory_order_relaxed);
  }

  /// Publishes thread `tid`'s cumulative counters read from its own
  /// sources (either may be null).  Call from thread `tid` only.
  void publish(int tid, std::uint64_t updates,
               const numa::TrafficRecorder* traffic,
               const cachesim::SharedHierarchy* cache) {
    using trace::SpanCounter;
    store(tid, SpanCounter::Updates, updates);
    if (traffic) {
      std::uint64_t local = 0, remote = 0, unowned = 0;
      traffic->thread_bytes(tid, local, remote, unowned);
      store(tid, SpanCounter::LocalBytes, local);
      store(tid, SpanCounter::RemoteBytes, remote);
      store(tid, SpanCounter::UnownedBytes, unowned);
    }
    if (!cache) return;
    const auto& levels = cache->core_traffic(tid);
    const std::size_t n =
        std::min(levels.size(), static_cast<std::size_t>(cache_levels_));
    for (std::size_t l = 0; l < n; ++l) {
      const int hits = static_cast<int>(SpanCounter::L1Hits) + 2 * static_cast<int>(l);
      store(tid, static_cast<SpanCounter>(hits), levels[l].hits);
      store(tid, static_cast<SpanCounter>(hits + 1), levels[l].misses);
    }
  }

  /// Copies thread `tid`'s row into the simulated slots of `out`; the
  /// hardware slots are left as they are.  Any thread may call this.
  void read(int tid, trace::CounterSet& out) const {
    const Row& r = rows_[static_cast<std::size_t>(tid)];
    for (std::size_t i = 0; i < static_cast<std::size_t>(kSlots); ++i)
      out.v[i] = r.v[i].load(std::memory_order_relaxed);
  }

  /// Advances the layer indicator (monotonic max; any thread may call).
  void set_layer(long layer) {
    long cur = layer_.load(std::memory_order_relaxed);
    while (layer > cur &&
           !layer_.compare_exchange_weak(cur, layer, std::memory_order_relaxed)) {
    }
  }
  /// The highest layer any thread has entered; -1 before the first.
  long layer() const { return layer_.load(std::memory_order_relaxed); }

 private:
  struct alignas(kCacheLineBytes) Row {
    std::array<std::atomic<std::uint64_t>, kSlots> v{};
  };

  std::vector<Row> rows_;
  int cache_levels_;
  std::atomic<long> layer_{-1};
};

}  // namespace nustencil::prof
