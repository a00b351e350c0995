#include "metrics/registry.hpp"

#include "common/error.hpp"

namespace nustencil::metrics {

Registry::Registry(int num_threads) {
  NUSTENCIL_CHECK(num_threads >= 1, "Registry: need at least one thread");
}

void Registry::add(const std::string& name, std::uint64_t v) {
  totals_.counters[name] += v;
}

void Registry::add_buckets(const std::string& name,
                           std::span<const std::uint64_t> buckets) {
  std::vector<std::uint64_t>& total = totals_.histograms[name];
  if (total.size() < buckets.size()) total.resize(buckets.size(), 0);
  for (std::size_t b = 0; b < buckets.size(); ++b) total[b] += buckets[b];
}

Snapshot Registry::snapshot() const {
  Snapshot s = totals_;
  // Trim trailing empty buckets so reports stay compact.
  for (auto& [name, buckets] : s.histograms)
    while (buckets.size() > 1 && buckets.back() == 0) buckets.pop_back();
  return s;
}

}  // namespace nustencil::metrics
