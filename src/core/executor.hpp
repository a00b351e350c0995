// Region executor: applies one Jacobi time step to a spatial box.
//
// All tiling schemes reduce to sequences of box updates at given time
// steps; the executor owns the per-row kernel dispatch (a tap-specialized
// SIMD kernel from core/kernels.hpp for interior segments, selected once
// at construction via runtime CPUID; a scalar wrap path at periodic
// boundaries, except that a full periodic row goes to a whole-row kernel
// call when KernelChoice::whole_rows), the traffic instrumentation, and
// the dependency checker hooks.  Boxes are given in *virtual*
// coordinates: they may extend beyond the domain in any dimension
// (skewed parallelograms do), and wrap around periodically.
#pragma once

#include <array>
#include <cstdint>

#include "cachesim/shared.hpp"
#include "core/box.hpp"
#include "core/depcheck.hpp"
#include "core/field.hpp"
#include "core/kernels.hpp"
#include "numa/traffic.hpp"
#include "prof/counter_shard.hpp"
#include "trace/trace.hpp"

namespace nustencil::core {

/// Optional per-run instrumentation shared by all threads.  `pages` must
/// be the table the problem's fields were attached to; it is required
/// whenever `traffic` is set.  `cache_sim`, when set, receives the
/// row-granular access stream of the execution (real data addresses) for
/// trace-driven cache simulation; thread `tid` maps to simulated core
/// `tid`.
struct Instrumentation {
  numa::PageTable* pages = nullptr;
  numa::TrafficRecorder* traffic = nullptr;
  DependencyChecker* checker = nullptr;
  cachesim::SharedHierarchy* cache_sim = nullptr;
  /// The run's live counter shard: update_box publishes the thread's
  /// cumulative simulated counters into it at the end of every tile.
  /// Null (the default) disables the hook at the cost of one branch.
  prof::CounterShard* counters = nullptr;
};

/// How one physical row segment [a, b) splits into wrap-checked slow
/// cells at the periodic boundary and the interior kernel fast path.
/// The three ranges are disjoint, ordered, and cover [a, b) exactly —
/// including tiny domains with nx < 2*order, where the boundary regions
/// meet in the middle and the fast range is empty.
struct RowSplit {
  Index lo0, lo1;      ///< leading slow range [lo0, lo1)
  Index fast0, fast1;  ///< interior fast range [fast0, fast1)
  Index hi0, hi1;      ///< trailing slow range [hi0, hi1)
};
RowSplit compute_row_split(Index a, Index b, Index nx, int order);

/// Kernel-dispatch counts of one executor, written only by its thread
/// and read after the team has joined (RunSupport::finish folds them
/// into RunConfig::metrics).
struct KernelCounts {
  std::uint64_t tiles = 0;       ///< update_box calls that updated cells
  std::uint64_t fast_rows = 0;   ///< kernel calls (one per fast row segment)
  std::uint64_t slow_cells = 0;  ///< cells on the scalar wrap path
  /// Log2 histogram of updates per tile: bucket b counts tiles whose
  /// update count u has bit_width(u) == b.
  std::array<std::uint64_t, 65> tile_buckets{};
};

class Executor {
 public:
  /// `instr` may outlive-or-null; the executor never owns it.  The row
  /// kernel is selected once here, from `policy`, the host CPU and the
  /// problem's geometry (rotated v2 kernels for canonical rank-3 stars).
  Executor(Problem& problem, Instrumentation instr = {},
           KernelPolicy policy = KernelPolicy::Auto);

  /// Updates every cell of `box` (virtual coordinates, wrapped into the
  /// periodic domain) from time `t` to `t+1` on behalf of thread `tid`.
  /// Returns the number of cell updates performed.
  Index update_box(const Box& box, long t, int tid);

  /// First-touch claim: marks the pages of `box` (physical coordinates)
  /// in both value buffers and all bands as owned by `node`, and performs
  /// the actual initialising write of buffer 0.  Mirrors the paper's
  /// Phase I: "each thread allocates and initialises one spatial tile".
  void first_touch_box(const Box& box, int node, unsigned seed);

  const Problem& problem() const { return *problem_; }
  Index updates_done() const { return updates_; }
  const KernelCounts& counts() const { return counts_; }

  /// Attaches the owning thread's span recorder: update_box then records
  /// a `tile` span (box origin + executing thread in the args) and
  /// first_touch_box an `init` span.  Null (the default) disables both at
  /// the cost of a single branch per call.
  void set_trace(trace::ThreadRecorder* rec) { trace_ = rec; }
  trace::ThreadRecorder* trace() const { return trace_; }

  /// The kernel variant this executor dispatches interior rows to.
  const KernelChoice& kernel() const { return kernel_; }

 private:
  struct RowPlan;
  void update_row(const RowPlan& plan, const KernelArgs& ka, long t);
  void account_row(const RowPlan& plan, long t, int tid);

  Problem* problem_;
  Instrumentation instr_;
  KernelChoice kernel_;
  trace::ThreadRecorder* trace_ = nullptr;
  Index updates_ = 0;
  KernelCounts counts_;

  // Per-problem invariants hoisted out of the row path.
  std::array<const double*, kMaxTaps> band_ptrs_{};

  // Cached geometry (normalised to 3D: missing dims have extent 1).
  Index nx_, ny_, nz_;
  Index sy_, sz_;  // strides of dims 1 and 2
};

}  // namespace nustencil::core
