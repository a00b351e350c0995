// Host microbenchmarks: the measured quantities of Table I, reproduced on
// whatever machine this runs on.  PeakDP issues independent SSE2 multiply-
// add chains on registers (the paper's method); the bandwidth benchmarks
// run STREAM-COPY-style sweeps over working sets sized for each level.
#pragma once

#include <cstddef>

namespace nustencil::perf {

/// Measured double-precision peak of one core, in GFLOPS.
double measure_peak_dp_gflops(double seconds_budget = 0.1);

/// STREAM COPY bandwidth over a working set of `bytes`, in GB/s
/// (read + write counted, as STREAM does), from the fastest of several
/// timed repetitions of back-to-back copy passes.
double measure_copy_bandwidth_gbs(std::size_t bytes, double seconds_budget = 0.1);

/// Convenience: copy bandwidth with a memory-sized working set.
double measure_memory_bandwidth_gbs(double seconds_budget = 0.2);

/// Convenience: copy bandwidth with an L1-sized working set.
double measure_l1_bandwidth_gbs(double seconds_budget = 0.1);

}  // namespace nustencil::perf
