// Small statistics helper used by the report statistics and benchmarks.
#pragma once

#include <vector>

namespace nustencil {

/// Median of a copy of `v` (empty vector -> 0).
double median(std::vector<double> v);

}  // namespace nustencil
