// Straggler analysis: rank the slowest spans of a traced run and explain
// each one from its own counter deltas.
//
// The verdict taxonomy mirrors the paper's cost model: a span is either
// waiting (spin-bound), dragging cross-socket traffic (remote-traffic-
// bound), thrashing the deepest cache level (cache-miss-bound), or
// genuinely compute-bound.  The thresholds are deliberately coarse — the
// point is to label the dominant term, not to fit a model — and every
// Attribution carries the evidence (fractions/rates) it was judged on so
// the dashboard can show its work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace nustencil::prof {

enum class Verdict : std::uint8_t {
  ComputeBound = 0,
  RemoteTrafficBound,
  CacheMissBound,
  SpinBound,
};

const char* verdict_name(Verdict v);

/// One leaf span lifted out of a thread's event ring, with everything
/// attribution needs.
struct SpanRecord {
  int tid = 0;
  trace::Phase phase = trace::Phase::Tile;
  trace::SpanArgs args;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t exclude_ns = 0;  ///< nested wait time inside the span
  trace::CounterSet counters;   ///< per-span deltas (zero when not sampled)

  std::int64_t dur_ns() const { return end_ns - start_ns; }
};

/// The verdict plus the evidence it rests on.
struct Attribution {
  Verdict verdict = Verdict::ComputeBound;
  double spin_frac = 0.0;    ///< waiting fraction of the span's extent
  double remote_frac = 0.0;  ///< remote fraction of owned traffic
  double miss_rate = 0.0;    ///< miss rate at the deepest active level
};

/// Judges one span.  Wait-phase spans are spin-bound by definition; for
/// compute spans the dominant counter wins: nested waiting above
/// kSpinBoundFrac, then remote share above kRemoteBoundFrac, then a
/// deepest-level miss rate above kMissBoundRate, else compute-bound.
Attribution attribute(const SpanRecord& span);

inline constexpr double kSpinBoundFrac = 0.4;
inline constexpr double kRemoteBoundFrac = 0.5;
inline constexpr double kMissBoundRate = 0.35;

/// One entry of the top-K slowest-span table.
struct Straggler {
  SpanRecord span;
  Attribution why;
  double dur_ms = 0.0;
  double mean_dur_ms = 0.0;  ///< mean over all leaf spans of the same phase
};

/// One point of the per-span roofline scatter: arithmetic intensity vs
/// achieved compute rate, coloured by verdict.
struct RooflinePoint {
  double ai = 0.0;      ///< flop per byte of simulated traffic
  double gflops = 0.0;  ///< achieved Gflop/s over the span
  int tid = 0;
  Verdict verdict = Verdict::ComputeBound;
};

/// The run report's `prof` payload.
struct ProfSummary {
  bool enabled = false;
  int flops_per_update = 0;
  std::uint64_t sampled_spans = 0;   ///< counter-carrying spans in the rings
  std::uint64_t dropped_events = 0;  ///< ring overflow across all threads
  /// Sum of every per-span counter delta, accumulated outside the rings:
  /// matches the run-wide totals the live counter shard publishes
  /// exactly (the invariant prof_test.cpp pins).
  trace::CounterSet totals;
  std::vector<Straggler> stragglers;
  std::vector<RooflinePoint> roofline;
};

/// Builds the summary from a finished trace: exact counter totals from
/// the per-phase accumulators, the top-`top_k` slowest leaf spans with
/// verdicts, and up to `max_roofline` scatter points (counter-carrying
/// spans in thread order — deterministic, and log()-free truncation is
/// visible via sampled_spans).
ProfSummary summarize(const trace::Trace& trace, int flops_per_update,
                      std::size_t top_k = 10, std::size_t max_roofline = 4096);

}  // namespace nustencil::prof
