#include "common/stats.hpp"

#include <algorithm>
#include <cstddef>

namespace nustencil {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid) - 1, v.end());
  return 0.5 * (hi + v[mid - 1]);
}

}  // namespace nustencil
