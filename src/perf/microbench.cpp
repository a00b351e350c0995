#include "perf/microbench.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <vector>

#include "common/aligned.hpp"
#include "common/timer.hpp"

namespace nustencil::perf {

namespace {

/// One round of independent multiply-adds on 8 SSE2 register accumulators;
/// returns the flop count.  The accumulators are returned through a sink
/// so the optimiser cannot remove the work.
double fma_round(std::size_t iters, double* sink) {
#if defined(__SSE2__)
  __m128d a0 = _mm_set1_pd(1.000001), a1 = _mm_set1_pd(1.000002);
  __m128d a2 = _mm_set1_pd(1.000003), a3 = _mm_set1_pd(1.000004);
  __m128d a4 = _mm_set1_pd(0.999999), a5 = _mm_set1_pd(0.999998);
  __m128d a6 = _mm_set1_pd(0.999997), a7 = _mm_set1_pd(0.999996);
  const __m128d m = _mm_set1_pd(0.9999999);
  const __m128d c = _mm_set1_pd(1e-9);
  for (std::size_t i = 0; i < iters; ++i) {
    a0 = _mm_add_pd(_mm_mul_pd(a0, m), c);
    a1 = _mm_add_pd(_mm_mul_pd(a1, m), c);
    a2 = _mm_add_pd(_mm_mul_pd(a2, m), c);
    a3 = _mm_add_pd(_mm_mul_pd(a3, m), c);
    a4 = _mm_add_pd(_mm_mul_pd(a4, m), c);
    a5 = _mm_add_pd(_mm_mul_pd(a5, m), c);
    a6 = _mm_add_pd(_mm_mul_pd(a6, m), c);
    a7 = _mm_add_pd(_mm_mul_pd(a7, m), c);
  }
  alignas(16) double out[2];
  __m128d total = _mm_add_pd(_mm_add_pd(a0, a1), _mm_add_pd(a2, a3));
  total = _mm_add_pd(total, _mm_add_pd(_mm_add_pd(a4, a5), _mm_add_pd(a6, a7)));
  _mm_store_pd(out, total);
  *sink += out[0] + out[1];
  // 8 accumulators x 2 lanes x 2 flops per iteration.
  return static_cast<double>(iters) * 32.0;
#else
  double a0 = 1.0, a1 = 1.1, a2 = 1.2, a3 = 1.3;
  for (std::size_t i = 0; i < iters; ++i) {
    a0 = a0 * 0.9999999 + 1e-9;
    a1 = a1 * 0.9999999 + 1e-9;
    a2 = a2 * 0.9999999 + 1e-9;
    a3 = a3 * 0.9999999 + 1e-9;
  }
  *sink += a0 + a1 + a2 + a3;
  return static_cast<double>(iters) * 8.0;
#endif
}

/// The timed copy of measure_copy_bandwidth_gbs.  It is single-threaded
/// and touches no shared state, so it is exempt from ThreadSanitizer:
/// instrumented, the per-access check costs more than the memory traffic
/// and a 16 KiB copy runs no faster than a 64 MiB one.  noinline keeps
/// the exemption from being lost by inlining into an instrumented caller.
__attribute__((noinline, no_sanitize("thread"))) void copy_doubles(
    double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

}  // namespace

double measure_peak_dp_gflops(double seconds_budget) {
  double sink = 0.0;
  std::size_t iters = 1 << 16;
  double flops = 0.0, seconds = 0.0;
  Timer timer;
  while (seconds < seconds_budget) {
    flops += fma_round(iters, &sink);
    seconds = timer.seconds();
    iters *= 2;
  }
  volatile double keep = sink;
  (void)keep;
  return flops / seconds * 1e-9;
}

double measure_copy_bandwidth_gbs(std::size_t bytes, double seconds_budget) {
  const std::size_t doubles = bytes / sizeof(double) / 2;
  AlignedBuffer src_buf(doubles * sizeof(double)), dst_buf(doubles * sizeof(double));
  double* src = reinterpret_cast<double*>(src_buf.data());
  double* dst = reinterpret_cast<double*>(dst_buf.data());
  for (std::size_t i = 0; i < doubles; ++i) src[i] = static_cast<double>(i);

  // One repetition times `passes` back-to-back copies with a single pair
  // of timer reads, so the clock never lands between passes.
  const auto repetition_seconds = [&](long passes) {
    const Timer timer;
    for (long p = 0; p < passes; ++p) {
      copy_doubles(dst, src, doubles);
      volatile double keep = dst[doubles / 2];
      (void)keep;
    }
    return timer.seconds();
  };
  // Grow the repetition to a tenth of the budget, then keep the fastest
  // of at least three (the one the fewest interruptions and page faults
  // hit) while the budget lasts.
  constexpr int kMinReps = 3, kMaxReps = 10;
  const Timer budget;
  long passes = 1;
  double best = repetition_seconds(passes);
  while (best < 0.1 * seconds_budget) {
    passes *= 2;
    best = repetition_seconds(passes);
  }
  for (int rep = 1; rep < kMaxReps && (rep < kMinReps || budget.seconds() < seconds_budget);
       ++rep)
    best = std::min(best, repetition_seconds(passes));
  return static_cast<double>(passes) * static_cast<double>(doubles) * 2.0 * sizeof(double) /
         best * 1e-9;
}

double measure_memory_bandwidth_gbs(double seconds_budget) {
  return measure_copy_bandwidth_gbs(128u << 20, seconds_budget);
}

double measure_l1_bandwidth_gbs(double seconds_budget) {
  return measure_copy_bandwidth_gbs(16u << 10, seconds_budget);
}

}  // namespace nustencil::perf
