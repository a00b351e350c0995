// Per-layer microbenchmarks of perf_ledger.  Each one drives a single
// layer of the engine through its public calls (core::Problem,
// core::Executor::update_box, threading::Team / Barrier /
// ProgressCounter, sched::TaskPool) and returns one sample per timed
// repetition; the caller reports the median and quartiles.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "core/stencil.hpp"
#include "ledger.hpp"

namespace perf_ledger {

/// How much work each microbenchmark does: the full ledger uses
/// LLC-derived triad arrays and enough repetitions for stable medians;
/// the smoke test shrinks everything to cover the code paths only.
struct MicroScale {
  std::size_t triad_array_bytes = 0;
  int reps = 7;
  int sync_iters = 20000;    ///< barriers / handoffs per repetition
  int tasks = 20000;         ///< empty TaskPool tasks per repetition
  double sweep_seconds = 1;  ///< time box of the core sweep pairs
};

/// Bytes of the host's last-level cache (sysconf; 32 MiB when unknown).
/// Queried here rather than through core::stream_auto_threshold_bytes(),
/// which is a kernel policy threshold a change may retune.
std::size_t host_llc_bytes();

/// STREAM triad a[i] = b[i] + s*c[i] over three arrays of `array_bytes`
/// each, first-touched and swept by `threads` threads (GB/s counting
/// the three arrays once per sweep, as STREAM does).
std::vector<double> triad_gbs(int threads, std::size_t array_bytes, int reps,
                              SpanLog* spans);

/// Single-threaded Executor::update_box sweeps of one problem: the whole
/// domain per step, and the same step cut into 16x4x4-cell boxes (the
/// ~15-cell rows of nuCORALS), alternated so drift hits both alike.
struct CoreSweep {
  std::vector<double> whole_s;    ///< seconds per whole-domain sweep
  std::vector<double> tiled_s;    ///< seconds per tiled sweep
  double sweep_bytes = 0;         ///< computed bytes of one sweep
  nustencil::Index tiles = 0;     ///< boxes per tiled sweep
};
CoreSweep core_sweep(const nustencil::Coord& shape,
                     const nustencil::core::StencilSpec& stencil,
                     const MicroScale& scale, SpanLog* spans);

/// Seconds of one core::Problem construction (allocation + zero fill).
std::vector<double> problem_alloc_s(const nustencil::Coord& shape,
                                    const nustencil::core::StencilSpec& stencil,
                                    int reps, SpanLog* spans);

/// Nanoseconds per Barrier::arrive_and_wait round of `threads` threads.
std::vector<double> barrier_ns(int threads, const MicroScale& scale, SpanLog* spans);

/// Nanoseconds per ProgressCounter handoff around a ring of `threads`.
std::vector<double> progress_handoff_ns(int threads, const MicroScale& scale,
                                        SpanLog* spans);

/// Microseconds to build a Team, run one empty body on it and join it:
/// what every Scheme::run pays outside its solve timer.
std::vector<double> team_run_us(int threads, int reps, SpanLog* spans);

/// Nanoseconds per empty TaskPool task when one owner holds every task
/// and the other workers must steal.
std::vector<double> task_ns(int threads, const MicroScale& scale, SpanLog* spans);

/// Spearman rank correlation (average ranks for ties; 0 when either side
/// has no variation).
double spearman(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perf_ledger
