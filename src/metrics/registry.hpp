// The run's post-run count record: named counters and log2 histograms.
//
// Every count has one owner while the team runs: the thread that
// produces it (core::Executor's KernelCounts, sched::TaskPool's
// SchedStats).  The registry is filled once, after the team has joined
// (RunSupport::finish), so it is a plain single-threaded map with no
// per-thread slots and nothing for a live reader to race on.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace nustencil::metrics {

/// Name-sorted view of a registry (for reports and tests).  Histograms
/// are log2-bucketed by their producer (bucket b counts values v with
/// bit_width(v) == b, see core::KernelCounts); trailing empty buckets are
/// trimmed.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> histograms;
};

class Registry {
 public:
  /// `num_threads` (>= 1) is the team size of the run the registry
  /// records.
  explicit Registry(int num_threads);

  /// Adds `v` to counter `name` (creating it at zero, so a zero count
  /// still appears in the record).
  void add(const std::string& name, std::uint64_t v);

  /// Adds `buckets` element-wise to histogram `name`.
  void add_buckets(const std::string& name, std::span<const std::uint64_t> buckets);

  Snapshot snapshot() const;

 private:
  Snapshot totals_;
};

}  // namespace nustencil::metrics
