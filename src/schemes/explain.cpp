#include "schemes/explain.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "core/spacetime.hpp"
#include "numa/traffic.hpp"
#include "sched/pool.hpp"
#include "schemes/cats_common.hpp"
#include "schemes/corals_common.hpp"
#include "schemes/decompose.hpp"
#include "schemes/diamond.hpp"
#include "schemes/mwd_common.hpp"
#include "schemes/scheme.hpp"
#include "schemes/trapezoid.hpp"

namespace nustencil::schemes {

namespace {

std::string bytes_human(double b) {
  std::ostringstream os;
  os.precision(3);
  if (b >= 1 << 20)
    os << b / (1 << 20) << " MiB";
  else if (b >= 1 << 10)
    os << b / (1 << 10) << " KiB";
  else
    os << b << " B";
  return os.str();
}

void describe_cats(std::ostringstream& os, const Coord& shape,
                   const core::StencilSpec& st, const topology::MachineSpec& m,
                   int threads, long timesteps, bool numa_aware,
                   sched::Schedule schedule) {
  const core::Box updatable =
      core::updatable_box(shape, st, CatsScheme(numa_aware).default_boundary());
  const CatsPlan plan =
      plan_cats(updatable, st, m, threads, timesteps, numa_aware, schedule);
  const double wavefront = static_cast<double>(shape[0]) *
                           static_cast<double>(plan.wy) *
                           (static_cast<double>(plan.chunk) * st.order() + 2.0 * st.order() + 2.0) *
                           8.0 * (st.banded() ? (2.0 + st.npoints()) / 2.0 : 1.0);
  const auto& llc = m.last_level_cache();
  os << "time-skewed wavefront (CATS family)\n"
     << "  temporal chunk Tc       : " << plan.chunk << " of " << timesteps
     << " steps (" << ceil_div(timesteps, plan.chunk) << " pass(es))\n"
     << "  tile width along y      : " << plan.wy << " cells\n"
     << "  tiles                   : " << plan.tiles_y << " x " << plan.z_segments
     << " z-segment(s) = " << plan.num_tiles() << " (threads: " << threads << ")\n"
     << "  moving wavefront        : ~" << bytes_human(wavefront)
     << " per tile vs LLC share "
     << bytes_human(static_cast<double>(llc.size_bytes) / llc.shared_by_cores) << "\n"
     << "  tile assignment         : "
     << (numa_aware ? "owner-matched (subdomain decomposition, parallel first touch)"
                    : "round-robin (serial first touch, all pages on node 0)")
     << '\n';
}

void describe_corals(std::ostringstream& os, const Coord& shape,
                     const core::StencilSpec& st, const topology::MachineSpec& m,
                     int threads, long timesteps, bool numa_aware) {
  const int s = st.order();
  const CoralsParams params;
  const CoralsLayout layout = plan_corals(shape, threads, s, params);
  const Index b = layout.b;
  const long tau = layout.tau;
  const long tau_act = std::min<long>(tau, timesteps);
  const bool rows_whole = layout.counts[0] <= 1;
  const core::BaseSizes sizes = corals_base_sizes(params);
  std::vector<core::SpaceTimeTile> bases;
  core::decompose_parallelogram(
      corals_layer(layout.tiles[0], layout.counts, shape, s, tau_act).root, sizes, bases);

  os << "bidirectional parallelogram tiling (CORALS family)\n"
     << "  spatial decomposition   : " << layout.counts
     << " tiles (unit-stride never cut)\n"
     << "  smallest tile extent b  : " << b << " cells\n"
     << "  layer height tau        : " << tau << " = b/(2s); "
     << ceil_div(timesteps, tau) << " layer(s) with global barriers\n"
     << "  thread parallelograms   : skewed right, slope +" << s
     << (rows_whole ? " (x: whole unskewed ring)" : "") << ", wrap at the domain edge\n"
     << "  root parallelogram      : skewed left, covers tile + 2s(tau-1) = "
     << 2 * s * (tau_act - 1) << " cells of right overhang\n"
     << "  base parallelograms     : " << bases.size() << " per thread per layer ("
     << (rows_whole ? "rows whole in x" : "x cut to " + std::to_string(sizes.space[0]) + " cells")
     << ", other dims cut to " << sizes.space[1] << " cells, " << sizes.time << " steps)\n"
     << "  expected local fraction : ~" << 100 - 100 * tau / (2 * b)
     << "% (paper Section III-C: 1 - tau/2b per decomposed dimension)\n"
     << "  initialisation          : "
     << (numa_aware ? "parallel first touch by owners" : "serial (all pages on node 0)")
     << '\n';
  (void)m;
}

void describe_mwd(std::ostringstream& os, const Coord& shape,
                  const core::StencilSpec& st, const topology::MachineSpec& m,
                  int threads, long timesteps, bool numa_aware, int group_size) {
  const MwdPlan plan =
      plan_mwd(shape, st, m, threads, timesteps, numa_aware, group_size);
  const int s = st.order();
  const auto& llc = m.last_level_cache();
  const Index nz = shape[shape.rank() - 1];
  os << "wavefront diamond blocking (MWD family)\n"
     << "  diamond half-height tau : " << plan.tau << " steps (width "
     << 2 * s * plan.tau << " of " << nz << " cells along z)\n"
     << "  ring columns            : " << plan.columns
     << " V/I pair(s), cut gap " << nz / plan.columns << " cells\n"
     << "  thread groups           : " << plan.groups << " x " << plan.group_size
     << " threads (" << (group_size > 0 ? "explicit" : "auto = LLC sharers") << "); "
     << "cross-section split " << plan.gy << "y x " << plan.gx << "x\n"
     << "  diamond working set     : " << bytes_human(plan.diamond_bytes)
     << " vs shared LLC " << bytes_human(static_cast<double>(llc.size_bytes))
     << " (" << llc.name << ", " << llc.shared_by_cores
     << " cores) — one group shares the whole cache, not a per-thread slice\n"
     << "  synchronisation         : group barrier per time level; one "
        "progress counter per column, growing steps wait on both ring "
        "neighbours (no global barriers)\n"
     << "  windows                 : " << mwd_windows(plan.tau, timesteps)
     << " (window 0 = steps 0-" << std::clamp(timesteps - 1, 0L, plan.tau) << ", then "
     << plan.tau << " step(s) each)\n"
     << "  window order            : ring wavefront, each growing column right "
        "after its two shrinking neighbours; one beside another group's "
        "column runs at the window's end\n"
     << "  column ownership        : "
     << (numa_aware ? "contiguous ring ranges (parallel first touch by group)"
                    : "round-robin (serial first touch, all pages on node 0)")
     << '\n';
}

}  // namespace

std::string describe_plan(const std::string& requested, const Coord& shape,
                          const core::StencilSpec& stencil,
                          const topology::MachineSpec& machine, int threads,
                          long timesteps, sched::Schedule schedule,
                          int group_size) {
  // Canonicalise through the factory so --explain accepts the same
  // case-insensitive spellings as a real run (throws on unknown names).
  const std::string name = make_scheme(requested)->name();
  std::ostringstream os;
  os << name << " on " << shape << ", s=" << stencil.order()
     << (stencil.banded() ? " (banded)" : "") << ", " << timesteps << " steps, "
     << threads << " thread(s), machine " << machine.name << ":\n";

  if (name == "CATS" || name == "nuCATS") {
    NUSTENCIL_CHECK(shape.rank() == 3, "describe_plan: CATS family is 3D-only");
    describe_cats(os, shape, stencil, machine, threads, timesteps, name == "nuCATS",
                  schedule);
  } else if (name == "CORALS" || name == "nuCORALS") {
    describe_corals(os, shape, stencil, machine, threads, timesteps,
                    name == "nuCORALS");
  } else if (name == "NaiveSSE") {
    const Coord counts = decompose_counts(shape, threads);
    os << "parallel sweep, no temporal blocking\n"
       << "  spatial decomposition   : " << counts
       << " tiles, parallel first touch, barrier per step\n";
  } else if (name == "Pochoir") {
    const int d = shape.rank() - 1;
    const int k = trapezoid_tiles(shape, stencil, threads);
    os << "two-phase trapezoids (Pochoir stand-in)\n"
       << "  tiles along dim " << d << "      : " << k << " of width " << shape[d] / k
       << '\n'
       << "  time block height       : "
       << trapezoid_block_height(shape, stencil, threads, timesteps)
       << " (bounded by W/2s)\n"
       << "  initialisation          : serial (NUMA-ignorant)\n";
  } else if (name == "MWD" || name == "nuMWD") {
    describe_mwd(os, shape, stencil, machine, threads, timesteps, name == "nuMWD",
                 group_size);
  } else if (name == "PLuTo") {
    os << "static skewed tile pipeline (PLuTo stand-in)\n"
       << "  tiles along highest dim : " << threads << " of width "
       << shape[shape.rank() - 1] / std::max(1, threads) << '\n'
       << "  time block height       : "
       << diamond_block_height(shape, stencil, threads, timesteps)
       << " (per-step neighbour pipeline)\n"
       << "  initialisation          : serial (NUMA-ignorant)\n";
  } else {
    throw Error("describe_plan: unknown scheme '" + name + "'");
  }

  os << "scheduling: " << sched::schedule_name(schedule);
  if (schedule == sched::Schedule::Static) {
    os << " (owner-computes; every tile runs on the thread whose node "
          "first-touched it)\n";
  } else {
    os << " (owner-first deques; an idle thread steals from the far end of "
          "the nearest busy victim"
       << (schedule == sched::Schedule::StealLocal ? ", same NUMA node only)\n"
                                                   : ")\n");
    const sched::TaskPool pool(
        threads, sched::thread_nodes(machine, numa::PinPolicy::Compact, threads),
        schedule);
    for (int tid = 0; tid < threads; ++tid) {
      os << "  victim order thread " << tid << " : ";
      const auto& order = pool.victim_order(tid);
      if (order.empty()) os << "(none)";
      for (std::size_t i = 0; i < order.size(); ++i)
        os << (i ? ", " : "") << order[i];
      os << '\n';
    }
  }
  return os.str();
}

}  // namespace nustencil::schemes
