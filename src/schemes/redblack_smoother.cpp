#include "schemes/redblack_smoother.hpp"

#include "common/timer.hpp"
#include "numa/page_table.hpp"
#include "numa/traffic.hpp"
#include "schemes/decompose.hpp"
#include "thread/barrier.hpp"
#include "thread/team.hpp"

namespace nustencil::schemes {

namespace {

/// Fills [begin, end) with the same deterministic values Problem uses, so
/// red-black results can be compared against Jacobi experiments.
void fill_range(core::Field& field, Index begin, Index end, unsigned seed) {
  for (Index i = begin; i < end; ++i) field.data()[i] = core::initial_value(i, seed);
}

}  // namespace

RedBlackResult run_redblack_smoother(core::Field& field,
                                     const core::StencilSpec& stencil,
                                     long iterations, int threads,
                                     const topology::MachineSpec* machine,
                                     unsigned seed, trace::Trace* trace) {
  NUSTENCIL_CHECK(threads >= 1, "run_redblack_smoother: need at least one thread");
  const Coord& shape = field.shape();
  core::Box domain;
  domain.lo = Coord::filled(shape.rank(), 0);
  domain.hi = shape;
  const Coord counts = decompose_counts(shape, threads);
  const auto tiles = decompose_domain(domain, counts);
  const Coord strides = strides_for(shape);

  std::optional<numa::PageTable> pages;
  std::optional<numa::VirtualTopology> topo;
  std::optional<numa::TrafficRecorder> recorder;
  if (machine) {
    pages.emplace();
    topo.emplace(*machine);
    recorder.emplace(*pages, *topo, threads);
    field.attach(*pages, "rb");
  }

  threading::Team team(threads, /*pin=*/false);
  threading::Barrier barrier(threads);
  core::RedBlackExecutor exec(field, stencil);

  if (trace) trace->begin_run(threads);
  const auto rec_of = [&](int tid) {
    return trace ? trace->thread(tid) : nullptr;
  };

  // Phase I: parallel first touch, row by row within each tile.
  team.run([&](int tid) {
    const trace::ScopedSpan init_span(rec_of(tid), trace::Phase::Init,
                                      {-1, -1, -1, tid});
    const core::Box& tile = tiles[static_cast<std::size_t>(tid)];
    const int rank = shape.rank();
    const Index lo1 = rank >= 2 ? tile.lo[1] : 0, hi1 = rank >= 2 ? tile.hi[1] : 1;
    const Index lo2 = rank >= 3 ? tile.lo[2] : 0, hi2 = rank >= 3 ? tile.hi[2] : 1;
    for (Index z = lo2; z < hi2; ++z)
      for (Index y = lo1; y < hi1; ++y) {
        const Index row = y * (rank >= 2 ? strides[1] : 0) +
                          z * (rank >= 3 ? strides[2] : 0);
        fill_range(field, row + tile.lo[0], row + tile.hi[0], seed);
        if (pages)
          pages->first_touch_page_start(
              field.region(), core::Field::byte_of(row + tile.lo[0]),
              core::Field::byte_of(row + tile.hi[0]), topo->node_of_thread(tid));
      }
  });

  std::vector<Index> per_thread(static_cast<std::size_t>(threads), 0);
  Timer timer;
  team.run([&](int tid) {
    trace::ThreadRecorder* rec = rec_of(tid);
    const core::Box& tile = tiles[static_cast<std::size_t>(tid)];
    for (long t = 0; t < iterations; ++t) {
      for (int color = 0; color < exec.num_colors(); ++color) {
        {
          // One half-sweep = one tile span (colour in the first arg slot).
          const trace::ScopedSpan sweep(rec, trace::Phase::Tile,
                                        {color, static_cast<std::int32_t>(t), -1, tid});
          per_thread[static_cast<std::size_t>(tid)] += exec.update_color(tile, color);
        }
        barrier.arrive_and_wait(nullptr, rec);
      }
      if (recorder) {
        // Account one tile-worth of touched bytes per iteration (both
        // colours stream the same rows).
        const int rank = shape.rank();
        const Index lo1 = rank >= 2 ? tile.lo[1] : 0,
                    hi1 = rank >= 2 ? tile.hi[1] : 1;
        const Index lo2 = rank >= 3 ? tile.lo[2] : 0,
                    hi2 = rank >= 3 ? tile.hi[2] : 1;
        for (Index z = lo2; z < hi2; ++z)
          for (Index y = lo1; y < hi1; ++y) {
            const Index row = y * (rank >= 2 ? strides[1] : 0) +
                              z * (rank >= 3 ? strides[2] : 0);
            recorder->account(tid, field.region(),
                              core::Field::byte_of(row + tile.lo[0]),
                              core::Field::byte_of(row + tile.hi[0]));
          }
      }
    }
  });

  RedBlackResult result;
  result.seconds = timer.seconds();
  for (Index u : per_thread) result.updates += u;
  if (recorder) result.locality = recorder->collect().locality();
  if (trace) result.phases = trace->breakdown();
  return result;
}

}  // namespace nustencil::schemes
