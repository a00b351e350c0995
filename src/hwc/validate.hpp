// Simulated-vs-measured cross-validation.
//
// The cache simulator and the PMU count different universes (simulated
// row-granular accesses vs real LLC transactions, prefetchers included),
// so absolute counts never match.  What *should* survive the modelling
// gap is the ordering: a span the simulator calls miss-heavy should
// measure miss-heavy too.  Spearman rank correlation captures exactly
// that, which is why it — not a ratio — is the headline of the run
// report's hw.validation section (`nustencil --report --trace
// --hw-counters=auto`) and the dashboard's measured-vs-simulated panel.
#pragma once

#include <cstddef>
#include <vector>

#include "hwc/group.hpp"
#include "trace/trace.hpp"

namespace nustencil::hwc {

/// Spearman rank correlation (average ranks on ties).  Returns 0.0 when
/// fewer than two points or either side is constant — callers gate on
/// Validation::n before reading meaning into it.
double spearman(const std::vector<double>& x, const std::vector<double>& y);

/// Pairs every Tile span's simulated misses (deepest cache level with
/// activity anywhere in the trace) with its measured cache-misses delta
/// and computes the rank correlation.  The stored scatter is downsampled
/// to at most `max_points`; the correlation uses every span.  Call only
/// when the trace carries events and the cache-misses event measured.
HwRunStats::Validation validate_against_simulation(const trace::Trace& trace,
                                                   std::size_t max_points = 256);

}  // namespace nustencil::hwc
