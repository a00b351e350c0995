// Per-thread NUMA traffic accounting.
//
// Schemes call account_read/account_write at tile granularity with the
// byte ranges they touch; the counters classify each range against the
// first-touch page table as local (page owned by the accessing thread's
// node) or remote, and record the per-node demand distribution the
// performance model needs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "numa/page_table.hpp"
#include "topology/machine.hpp"

namespace nustencil::numa {

/// Thread-to-core placement policies.  The paper pins compactly — "we pin
/// the thread contexts to cores on one socket, before occupying a new
/// socket" (Section IV-B) — so that scaling studies do not exploit another
/// socket's bandwidth early.  Scatter (round-robin across sockets) is the
/// opposite policy, provided for the pinning ablation.
enum class PinPolicy { Compact, Scatter };

/// Placement of logical threads onto the simulated machine.
class VirtualTopology {
 public:
  explicit VirtualTopology(const topology::MachineSpec& machine,
                           PinPolicy policy = PinPolicy::Compact)
      : machine_(&machine), policy_(policy) {}

  int node_of_thread(int tid) const {
    if (policy_ == PinPolicy::Scatter) return tid % machine_->numa_nodes();
    return machine_->node_of_core(tid);
  }
  int num_nodes() const { return machine_->numa_nodes(); }
  const topology::MachineSpec& machine() const { return *machine_; }
  PinPolicy policy() const { return policy_; }

 private:
  const topology::MachineSpec* machine_;
  PinPolicy policy_ = PinPolicy::Compact;
};

/// One window of the locality time-series: the owned traffic a window of
/// `updates` cell updates demanded, split local/remote.  Samples make the
/// first-touch warm-up and the steady-state affinity separately visible
/// instead of folding the whole run into one scalar.
struct LocalitySample {
  std::uint64_t updates = 0;      ///< cumulative cell updates at sample time
  std::uint64_t local_bytes = 0;  ///< owned node-local bytes in this window
  std::uint64_t remote_bytes = 0; ///< owned cross-node bytes in this window

  double locality() const {
    const std::uint64_t owned = local_bytes + remote_bytes;
    return owned == 0 ? 1.0 : static_cast<double>(local_bytes) / static_cast<double>(owned);
  }
};

/// Aggregated traffic of one run.
struct TrafficStats {
  std::uint64_t local_bytes = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t unowned_bytes = 0;
  /// Bytes demanded from each NUMA node's memory (by any thread).
  std::vector<std::uint64_t> bytes_from_node;

  /// Full node-to-node demand matrix, row-major `nodes x nodes`:
  /// entry [consumer * nodes + owner] counts the owned bytes threads on
  /// `consumer` demanded from pages owned by `owner`.  The diagonal sums
  /// to local_bytes, the off-diagonal to remote_bytes.
  std::vector<std::uint64_t> node_matrix;

  /// Windowed locality time-series (empty unless sampling was enabled);
  /// window i aggregates window i of every thread.
  std::vector<LocalitySample> samples;

  int num_nodes() const { return static_cast<int>(bytes_from_node.size()); }

  std::uint64_t matrix_at(int consumer, int owner) const {
    return node_matrix[static_cast<std::size_t>(consumer) *
                           static_cast<std::size_t>(num_nodes()) +
                       static_cast<std::size_t>(owner)];
  }

  std::uint64_t total_bytes() const { return local_bytes + remote_bytes + unowned_bytes; }

  /// Fraction of owned traffic that was node-local (1.0 when no traffic).
  double locality() const {
    const std::uint64_t owned = local_bytes + remote_bytes;
    return owned == 0 ? 1.0 : static_cast<double>(local_bytes) / static_cast<double>(owned);
  }

  void merge(const TrafficStats& o);
};

/// One counter per thread; cache-line padded, merged after the run.
class TrafficRecorder {
 public:
  TrafficRecorder(const PageTable& pages, const VirtualTopology& topo, int num_threads);

  /// Enables the windowed locality time-series: every thread closes a
  /// window (pushing one LocalitySample) each time it has performed
  /// another `updates` cell updates, as reported through tick_updates().
  /// 0 (the default) disables sampling.
  void set_sample_window(std::uint64_t updates) { sample_window_ = updates; }

  /// Accounts `bytes(range)` of traffic by thread `tid` against the page
  /// ownership of [byte_begin, byte_end) in `region`.  Every byte of the
  /// range is attributed to exactly one node (or the unowned bucket),
  /// even when the range straddles differently-owned pages.
  void account(int tid, RegionId region, Index byte_begin, Index byte_end);

  /// Progress hook (executors call this once per tile): thread `tid` has
  /// performed another `updates` cell updates.  Closes the thread's
  /// sample window when it crosses the configured size; costs one branch
  /// when sampling is disabled.
  void tick_updates(int tid, std::uint64_t updates) {
    if (sample_window_ == 0) return;
    PerThread& p = per_thread_[static_cast<std::size_t>(tid)];
    p.window_updates += updates;
    p.cum_updates += updates;
    if (p.window_updates >= sample_window_) close_window(p);
  }

  /// Merged statistics over all threads.
  TrafficStats collect() const;

  /// Cumulative byte counters of thread `tid`'s private shard.  The
  /// shard is single-writer plain memory: only thread `tid` itself may
  /// read it while the team runs (its executor does, to publish the
  /// run's live prof::CounterShard once per tile); any other thread
  /// only after the team has joined.
  void thread_bytes(int tid, std::uint64_t& local, std::uint64_t& remote,
                    std::uint64_t& unowned) const {
    const PerThread& p = per_thread_[static_cast<std::size_t>(tid)];
    local = p.stats.local_bytes;
    remote = p.stats.remote_bytes;
    unowned = p.stats.unowned_bytes;
  }

 private:
  struct alignas(kCacheLineBytes) PerThread {
    TrafficStats stats;
    int node = 0;  ///< the thread's NUMA node (fixed by the topology)
    // Locality time-series state.
    std::uint64_t cum_updates = 0;
    std::uint64_t window_updates = 0;
    std::uint64_t sampled_local = 0;   ///< local_bytes at last window close
    std::uint64_t sampled_remote = 0;  ///< remote_bytes at last window close
    std::vector<LocalitySample> samples;
  };

  void close_window(PerThread& p);

  const PageTable* pages_;
  const VirtualTopology* topo_;
  std::uint64_t sample_window_ = 0;
  std::vector<PerThread> per_thread_;
  mutable std::vector<std::vector<std::uint64_t>> scratch_;  // per-thread scratch
};

}  // namespace nustencil::numa
