// Space-time execution tracing: per-thread event ring buffers plus exact
// per-phase wall-time totals.
//
// The paper's argument is about *where time goes* — compute inside
// cache-sized tiles vs waiting at global barriers and spin flags — so the
// schemes and executors feed typed spans into one ThreadRecorder per
// worker.  Each recorder is single-producer (only its own thread writes),
// so recording is a plain store into a preallocated ring; collection
// happens after the team has joined.  When no recorder is attached every
// hook is a single null-pointer check, and the phase totals are
// accumulated outside the ring, so they stay exact even when the ring
// overflows and drops old events.
//
// The collector serializes the event stream as Chrome trace-event JSON
// (one track per thread, loadable in Perfetto / chrome://tracing) and
// aggregates the totals into a PhaseBreakdown for RunResult.phases.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace nustencil::trace {

/// Span taxonomy.  Leaf phases partition a thread's accounted time and
/// feed the phase totals; structural phases (Layer, Parallelogram) group
/// leaf spans for the timeline and are excluded from the totals so that
/// nested spans are not double-counted.
enum class Phase : std::uint8_t {
  Init = 0,       ///< allocation + first-touch initialisation (leaf)
  Tile,           ///< one Executor::update_box sweep (leaf, compute)
  BarrierWait,    ///< spinning in Barrier::arrive_and_wait (leaf)
  SpinWait,       ///< spinning on a threading::ProgressCounter (leaf)
  Parallelogram,  ///< one base parallelogram, CORALS family (structural)
  Layer,          ///< one temporal layer / chunk between barriers (structural)
  Steal,          ///< a stolen task executing on a thief thread (structural)
  kCount
};

inline constexpr int kNumPhases = static_cast<int>(Phase::kCount);

const char* phase_name(Phase p);

/// Leaf phases are mutually exclusive in time on one thread; only they
/// contribute to the per-phase totals.
constexpr bool phase_is_leaf(Phase p) {
  return p == Phase::Init || p == Phase::Tile || p == Phase::BarrierWait ||
         p == Phase::SpinWait;
}

/// Small fixed argument set carried by every span.  The meaning depends
/// on the phase (see the Chrome JSON writer): Tile uses a/b/c as the box
/// origin and owner as the executing thread; SpinWait uses a as the wait
/// target (for CORALS/nuCORALS the producing tile's (base, step) pair
/// count) and owner as the producing tile/thread; Layer uses a as the
/// layer index, b as the absolute start step and c as the layer height.
struct SpanArgs {
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;
  std::int32_t owner = -1;
};

/// Fixed slot layout of the per-span counter deltas (the simulated-PMU
/// equivalent of a perf counter group).  The slots are defined here so
/// the serializers can derive byte totals, locality and miss rates
/// without knowing the sampler implementation; the live counter shard
/// that carries the simulated slots lives in src/prof/.
enum class SpanCounter : std::uint8_t {
  Updates = 0,   ///< cell updates (Executor::updates_done)
  LocalBytes,    ///< node-local owned traffic bytes
  RemoteBytes,   ///< cross-node owned traffic bytes
  UnownedBytes,  ///< traffic against never-touched pages
  L1Hits,
  L1Misses,
  L2Hits,
  L2Misses,
  L3Hits,
  L3Misses,
  // Measured hardware counters (src/hwc/), one slot per hwc::Event in
  // the same order.  Zero when hardware counting is off or the event is
  // unavailable; raw (multiplex-unscaled) counts otherwise.
  HwCycles,
  HwInstructions,
  HwCacheRefs,
  HwCacheMisses,
  HwStalledCycles,
  HwTaskClock,  ///< nanoseconds on-CPU (software event)
  HwPageFaults,
  kCount
};

inline constexpr int kNumSpanCounters = static_cast<int>(SpanCounter::kCount);

const char* span_counter_name(SpanCounter c);

/// One cumulative-or-delta sample of every span counter.
struct CounterSet {
  std::array<std::uint64_t, kNumSpanCounters> v{};

  std::uint64_t& at(SpanCounter c) { return v[static_cast<std::size_t>(c)]; }
  std::uint64_t at(SpanCounter c) const { return v[static_cast<std::size_t>(c)]; }

  /// Element-wise `this - earlier` (counters are monotone; callers pass
  /// the start-of-span sample).
  CounterSet delta_since(const CounterSet& earlier) const {
    CounterSet d;
    for (int i = 0; i < kNumSpanCounters; ++i) d.v[static_cast<std::size_t>(i)] =
        v[static_cast<std::size_t>(i)] - earlier.v[static_cast<std::size_t>(i)];
    return d;
  }

  void accumulate(const CounterSet& d) {
    for (int i = 0; i < kNumSpanCounters; ++i)
      v[static_cast<std::size_t>(i)] += d.v[static_cast<std::size_t>(i)];
  }

  bool any() const {
    for (const std::uint64_t x : v)
      if (x != 0) return true;
    return false;
  }

  std::uint64_t owned_bytes() const {
    return at(SpanCounter::LocalBytes) + at(SpanCounter::RemoteBytes);
  }
  std::uint64_t total_bytes() const {
    return owned_bytes() + at(SpanCounter::UnownedBytes);
  }
  /// Fraction of owned traffic that was node-local (1.0 when none).
  double locality() const {
    const std::uint64_t owned = owned_bytes();
    return owned == 0 ? 1.0
                      : static_cast<double>(at(SpanCounter::LocalBytes)) /
                            static_cast<double>(owned);
  }

  static constexpr int kMaxCacheLevels = 3;
  std::uint64_t level_hits(int level) const {
    return v[static_cast<std::size_t>(SpanCounter::L1Hits) +
             2 * static_cast<std::size_t>(level)];
  }
  std::uint64_t level_misses(int level) const {
    return v[static_cast<std::size_t>(SpanCounter::L1Misses) +
             2 * static_cast<std::size_t>(level)];
  }
  /// Deepest cache level (0-based) with any activity, or -1.
  int deepest_level() const {
    for (int l = kMaxCacheLevels - 1; l >= 0; --l)
      if (level_hits(l) + level_misses(l) != 0) return l;
    return -1;
  }
  /// Miss rate of `level` (0.0 when the level saw no accesses).
  double miss_rate(int level) const {
    const std::uint64_t total = level_hits(level) + level_misses(level);
    return total == 0 ? 0.0
                      : static_cast<double>(level_misses(level)) /
                            static_cast<double>(total);
  }
};

/// Source of cumulative per-thread counter values, sampled at leaf-span
/// boundaries.  Implementations must be safe to call from thread `tid`
/// for that tid's own counters only (single-writer shards).
class CounterSampler {
 public:
  virtual ~CounterSampler() = default;
  virtual void sample(int tid, CounterSet& out) const = 0;
};

/// Only these leaf phases carry counter deltas.  Every instrumented
/// increment (updates, traffic bytes, simulated cache accesses) happens
/// inside Executor::update_box / first_touch_box — i.e. inside a Tile or
/// Init span — and those spans never nest in each other, so restricting
/// sampling to them makes the per-span deltas sum *exactly* to the run
/// totals: wait spans and structural spans contribute nothing and
/// nothing is counted twice.
constexpr bool phase_carries_counters(Phase p) {
  return p == Phase::Tile || p == Phase::Init;
}

struct Event {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t exclude_ns = 0;  ///< nested leaf time (kept for attribution)
  std::uint64_t spins = 0;      ///< spin-loop iterations (wait phases only)
  CounterSet counters;          ///< per-span deltas; valid iff has_counters
  SpanArgs args;
  Phase phase = Phase::Tile;
  bool has_counters = false;
};

/// Per-thread recorder: exact phase totals plus a fixed-capacity event
/// ring (oldest events are overwritten on overflow; `dropped()` counts
/// them).  All mutating members must be called from the owning thread
/// only.  The phase totals (total_ns, span_count, spin_count) may be read
/// by any thread at any time; everything else is read after the worker
/// has joined.
class ThreadRecorder {
 public:
  /// Nanoseconds since the owning Trace's epoch (monotonic clock).
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// `exclude_ns` is subtracted from the contribution to the phase total
  /// (but not from the stored event): a caller whose span *contains*
  /// other leaf spans — e.g. a tile span covering a spin wait — passes
  /// the nested leaf time here so the totals still partition thread time,
  /// while the timeline keeps the span's full extent for nesting.
  /// `counters`, when non-null, is the span's counter delta; it is stored
  /// on the event and accumulated into the per-phase counter totals,
  /// which — like the time totals — live outside the ring and stay exact
  /// when the ring overflows.
  void record(Phase phase, std::int64_t start_ns, std::int64_t end_ns,
              SpanArgs args = {}, std::uint64_t spins = 0,
              std::int64_t exclude_ns = 0,
              const CounterSet* counters = nullptr) {
    const auto i = static_cast<std::size_t>(phase);
    bump(total_ns_[i], end_ns - start_ns - exclude_ns);
    bump(span_count_[i], std::uint64_t{1});
    bump(spin_count_[i], spins);
    if (counters) counter_totals_[i].accumulate(*counters);
    if (capacity_ == 0) return;  // metrics-only mode: no event storage
    Event& e = ring_[next_];
    e.start_ns = start_ns;
    e.end_ns = end_ns;
    e.exclude_ns = exclude_ns;
    e.spins = spins;
    e.args = args;
    e.phase = phase;
    if (counters) {
      e.counters = *counters;
      e.has_counters = true;
    } else {
      e.has_counters = false;
    }
    next_ = (next_ + 1) % capacity_;
    recorded_ += 1;
  }

  /// The attached simulated-PMU sampler; null = per-span counters off
  /// (the ScopedSpan fast path is then one extra null check).
  const CounterSampler* sampler() const { return sampler_; }

  /// Samples the cumulative counters of this recorder's thread.  Call
  /// from the owning thread only, and only when sampler() is non-null.
  void sample(CounterSet& out) const { sampler_->sample(tid_, out); }

  int tid() const { return tid_; }

  /// Events still held by the ring, in chronological (insertion) order.
  std::vector<Event> events() const;

  /// Events recorded minus events still in the ring.
  std::uint64_t dropped() const {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }

  std::int64_t total_ns(Phase p) const {
    return total_ns_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }
  std::uint64_t span_count(Phase p) const {
    return span_count_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }
  std::uint64_t spin_count(Phase p) const {
    return spin_count_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }

  /// Exact per-phase sum of every counter delta recorded for `p`
  /// (accumulated outside the ring, unaffected by drops).
  const CounterSet& counter_total(Phase p) const {
    return counter_totals_[static_cast<std::size_t>(p)];
  }

 private:
  friend class Trace;

  std::chrono::steady_clock::time_point epoch_{};
  int tid_ = 0;
  const CounterSampler* sampler_ = nullptr;
  std::vector<Event> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
  // Single-writer relaxed atomics: the owner adds with a load and a
  // store (no read-modify-write, so a plain add on x86).
  template <class T>
  static void bump(std::atomic<T>& total, T delta) {
    total.store(total.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
  }
  std::array<std::atomic<std::int64_t>, kNumPhases> total_ns_{};
  std::array<std::atomic<std::uint64_t>, kNumPhases> span_count_{};
  std::array<std::atomic<std::uint64_t>, kNumPhases> spin_count_{};
  std::array<CounterSet, kNumPhases> counter_totals_{};
};

/// RAII span: takes the start timestamp on construction and records on
/// destruction.  A null recorder makes both ends a no-op, so call sites
/// need no branches of their own.  When the recorder carries a counter
/// sampler and the phase is a counter-carrying leaf (Tile/Init), both
/// ends additionally snapshot the thread's cumulative counters and the
/// recorded event carries the delta.
class ScopedSpan {
 public:
  ScopedSpan(ThreadRecorder* rec, Phase phase, SpanArgs args = {})
      : rec_(rec), phase_(phase), args_(args) {
    if (rec_) {
      start_ns_ = rec_->now_ns();
      if (rec_->sampler() && phase_carries_counters(phase_)) {
        sampled_ = true;
        rec_->sample(start_counters_);
      }
    }
  }
  ~ScopedSpan() {
    if (!rec_) return;
    if (sampled_) {
      CounterSet now;
      rec_->sample(now);
      const CounterSet delta = now.delta_since(start_counters_);
      rec_->record(phase_, start_ns_, rec_->now_ns(), args_, 0, 0, &delta);
    } else {
      rec_->record(phase_, start_ns_, rec_->now_ns(), args_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadRecorder* rec_;
  Phase phase_;
  SpanArgs args_;
  std::int64_t start_ns_ = 0;
  bool sampled_ = false;
  CounterSet start_counters_;
};

/// Aggregated per-thread, per-phase totals — the RunResult.phases payload.
struct PhaseBreakdown {
  struct Thread {
    std::array<double, kNumPhases> seconds{};
    std::array<std::uint64_t, kNumPhases> spans{};
    std::uint64_t spins = 0;    ///< spin-loop iterations across wait phases
    std::uint64_t dropped = 0;  ///< events lost to ring overflow

    double init_s() const { return seconds[static_cast<std::size_t>(Phase::Init)]; }
    double compute_s() const { return seconds[static_cast<std::size_t>(Phase::Tile)]; }
    double barrier_wait_s() const {
      return seconds[static_cast<std::size_t>(Phase::BarrierWait)];
    }
    double spin_wait_s() const {
      return seconds[static_cast<std::size_t>(Phase::SpinWait)];
    }
    /// Time the thread was doing useful work (init + compute).
    double busy_s() const { return init_s() + compute_s(); }
    /// Leaf time a run's wall clock can cover: compute + barrier + spin.
    /// Init is left out because the first-touch pass runs before a
    /// scheme starts its timer.
    double timed_s() const {
      return compute_s() + barrier_wait_s() + spin_wait_s();
    }
    /// Total wall time covered by leaf spans.
    double accounted_s() const { return init_s() + timed_s(); }
  };

  bool enabled = false;
  std::vector<Thread> threads;

  /// Sum of one leaf phase over all threads, in seconds.
  double total_s(Phase p) const;

  /// Load imbalance: max over threads of busy time divided by the mean
  /// (1.0 = perfectly balanced; 1.0 when empty or idle).
  double imbalance() const;
};

/// The run-wide collector: one ThreadRecorder per worker, a common epoch,
/// and the serializers.  Reusable across runs — begin_run() resets the
/// recorders and the epoch for a new thread count.
class Trace {
 public:
  static constexpr std::size_t kDefaultEventsPerThread = 1 << 16;

  /// `events_per_thread` is the ring capacity; 0 keeps exact phase totals
  /// but stores no events (metrics-only mode).
  explicit Trace(std::size_t events_per_thread = kDefaultEventsPerThread)
      : events_per_thread_(events_per_thread) {}

  /// Prepares `num_threads` fresh recorders and restarts the clock epoch.
  /// Must not be called while workers hold recorder pointers.
  void begin_run(int num_threads);

  /// Recorder of worker `tid`, or nullptr when tid is out of range (no
  /// run began).  Pointers stay valid until the next begin_run().
  ThreadRecorder* thread(int tid) {
    return tid >= 0 && tid < static_cast<int>(threads_.size())
               ? &threads_[static_cast<std::size_t>(tid)]
               : nullptr;
  }
  const ThreadRecorder* thread(int tid) const {
    return const_cast<Trace*>(this)->thread(tid);
  }

  int num_threads() const { return static_cast<int>(threads_.size()); }
  std::size_t events_per_thread() const { return events_per_thread_; }

  /// Attaches (or detaches, with null) the simulated-PMU sampler to
  /// every recorder, current and future.  Call between runs, never while
  /// workers are recording.
  void set_sampler(const CounterSampler* sampler) {
    sampler_ = sampler;
    for (ThreadRecorder& t : threads_) t.sampler_ = sampler;
  }
  const CounterSampler* sampler() const { return sampler_; }

  /// Arithmetic cost of one cell update, used by the JSON serializer to
  /// derive arithmetic intensity (flops/byte) from the counter deltas.
  /// 0 (the default) omits the derived args.
  void set_flops_per_update(int flops) { flops_per_update_ = flops; }
  int flops_per_update() const { return flops_per_update_; }

  /// Aggregates the recorders' totals (exact, unaffected by ring drops).
  PhaseBreakdown breakdown() const;

  /// Chrome trace-event JSON: one "X" (complete) event per span, one
  /// track per thread, timestamps in microseconds since the run epoch.
  /// Counter-carrying spans get their deltas (bytes, miss rate, M up/s,
  /// arithmetic intensity) as span args plus per-thread "C" counter
  /// tracks (locality %, remote MB/s).  Loadable in Perfetto and
  /// chrome://tracing.
  void write_chrome_json(std::ostream& os) const;
  void write_chrome_json_file(const std::string& path) const;

 private:
  std::size_t events_per_thread_;
  const CounterSampler* sampler_ = nullptr;
  int flops_per_update_ = 0;
  std::vector<ThreadRecorder> threads_;
};

/// Human-readable observability configuration for `nustencil --explain`.
std::string describe_observability(const std::string& trace_path,
                                   bool phase_metrics,
                                   std::size_t events_per_thread);

}  // namespace nustencil::trace
