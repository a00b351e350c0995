// First-touch page ownership tracking — the heart of the simulated ccNUMA
// substrate.
//
// On the paper's machines the Linux kernel places each page on the NUMA
// node of the core that first touches it.  We reproduce that policy in
// software: allocations register a region, the schemes' initialisation
// passes claim page ranges for the (virtual) node of the touching thread,
// and during execution the traffic counters classify every access range as
// local or remote.  Which thread first-touches which page, and which
// thread later reads or writes it, is a property of the *algorithm*, so
// this measurement is exact even though the host has no NUMA hardware.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace nustencil::numa {

inline constexpr std::int8_t kUnowned = -1;

using RegionId = std::size_t;

class PageTable {
 public:
  explicit PageTable(Index page_bytes = kPageBytes);

  /// Registers a contiguous allocation of `bytes` bytes; all pages start
  /// unowned. Returns a handle used by all later calls.
  RegionId register_region(std::string name, Index bytes);

  /// Deterministic first-touch: assigns every still-unowned page whose
  /// *first byte* lies in [byte_begin, byte_end) to `node`.  When the
  /// touch ranges of concurrent initialisers tile the region disjointly
  /// (as the schemes' per-tile init passes do), each page start falls in
  /// exactly one range, so a page straddling two ranges always goes to
  /// the owner of its first byte — independent of thread timing, and no
  /// two threads ever write the same page's owner entry.
  void first_touch_page_start(RegionId region, Index byte_begin, Index byte_end,
                              int node);

  /// Forces ownership of the overlapping pages to `node` regardless of any
  /// previous owner (models numa_move_pages / interleaved allocation).
  void place(RegionId region, Index byte_begin, Index byte_end, int node);

  /// Owner of the page containing `byte_offset` (kUnowned if untouched).
  int owner(RegionId region, Index byte_offset) const;

  /// Splits [byte_begin, byte_end) into per-node byte counts (index = node;
  /// the last slot of the result counts unowned bytes).
  void count_bytes_by_node(RegionId region, Index byte_begin, Index byte_end,
                           int num_nodes, std::vector<std::uint64_t>& out) const;

  /// Fraction of pages of `region` owned by `node` (0 when empty).
  double owned_fraction(RegionId region, int node) const;

  Index region_bytes(RegionId region) const;
  const std::string& region_name(RegionId region) const;

 private:
  struct Region {
    std::string name;
    Index bytes = 0;
    std::vector<std::int8_t> page_owner;
  };

  const Region& get(RegionId id) const {
    NUSTENCIL_CHECK(id < regions_.size(), "PageTable: bad region id");
    return regions_[id];
  }
  Region& get(RegionId id) {
    NUSTENCIL_CHECK(id < regions_.size(), "PageTable: bad region id");
    return regions_[id];
  }

  Index page_bytes_;
  std::vector<Region> regions_;
};

}  // namespace nustencil::numa
