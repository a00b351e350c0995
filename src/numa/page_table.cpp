#include "numa/page_table.hpp"

#include <algorithm>

namespace nustencil::numa {

PageTable::PageTable(Index page_bytes) : page_bytes_(page_bytes) {
  NUSTENCIL_CHECK(page_bytes > 0, "PageTable: page size must be positive");
}

RegionId PageTable::register_region(std::string name, Index bytes) {
  NUSTENCIL_CHECK(bytes >= 0, "PageTable: negative region size");
  Region r;
  r.name = std::move(name);
  r.bytes = bytes;
  r.page_owner.assign(static_cast<std::size_t>(ceil_div(bytes, page_bytes_)), kUnowned);
  regions_.push_back(std::move(r));
  return regions_.size() - 1;
}

void PageTable::first_touch_page_start(RegionId region, Index byte_begin,
                                       Index byte_end, int node) {
  Region& r = get(region);
  NUSTENCIL_CHECK(byte_begin >= 0 && byte_end <= r.bytes && byte_begin <= byte_end,
                  "PageTable::first_touch_page_start: range out of region");
  NUSTENCIL_CHECK(node >= 0 && node < 127, "PageTable::first_touch_page_start: bad node");
  if (byte_begin == byte_end) return;
  // First page whose start byte is >= byte_begin; last page start < byte_end.
  const Index p0 = ceil_div(byte_begin, page_bytes_);
  const Index p1 = (byte_end - 1) / page_bytes_;
  for (Index p = p0; p <= p1; ++p) {
    auto& owner = r.page_owner[static_cast<std::size_t>(p)];
    if (owner == kUnowned) owner = static_cast<std::int8_t>(node);
  }
}

void PageTable::place(RegionId region, Index byte_begin, Index byte_end, int node) {
  Region& r = get(region);
  NUSTENCIL_CHECK(byte_begin >= 0 && byte_end <= r.bytes && byte_begin <= byte_end,
                  "PageTable::place: range out of region");
  if (byte_begin == byte_end) return;
  const Index p0 = byte_begin / page_bytes_;
  const Index p1 = (byte_end - 1) / page_bytes_;
  for (Index p = p0; p <= p1; ++p)
    r.page_owner[static_cast<std::size_t>(p)] = static_cast<std::int8_t>(node);
}

int PageTable::owner(RegionId region, Index byte_offset) const {
  const Region& r = get(region);
  NUSTENCIL_CHECK(byte_offset >= 0 && byte_offset < r.bytes,
                  "PageTable::owner: offset out of region");
  return r.page_owner[static_cast<std::size_t>(byte_offset / page_bytes_)];
}

void PageTable::count_bytes_by_node(RegionId region, Index byte_begin, Index byte_end,
                                    int num_nodes, std::vector<std::uint64_t>& out) const {
  const Region& r = get(region);
  NUSTENCIL_CHECK(byte_begin >= 0 && byte_end <= r.bytes && byte_begin <= byte_end,
                  "PageTable::count_bytes_by_node: range out of region");
  out.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  Index pos = byte_begin;
  while (pos < byte_end) {
    const Index page = pos / page_bytes_;
    const Index page_end = std::min(byte_end, (page + 1) * page_bytes_);
    const int node = r.page_owner[static_cast<std::size_t>(page)];
    const std::size_t slot =
        node == kUnowned ? static_cast<std::size_t>(num_nodes) : static_cast<std::size_t>(node);
    NUSTENCIL_CHECK(node == kUnowned || node < num_nodes,
                    "PageTable::count_bytes_by_node: owner beyond num_nodes");
    out[slot] += static_cast<std::uint64_t>(page_end - pos);
    pos = page_end;
  }
}

double PageTable::owned_fraction(RegionId region, int node) const {
  const Region& r = get(region);
  if (r.page_owner.empty()) return 0.0;
  std::size_t n = 0;
  for (std::int8_t o : r.page_owner)
    if (o == node) ++n;
  return static_cast<double>(n) / static_cast<double>(r.page_owner.size());
}

Index PageTable::region_bytes(RegionId region) const { return get(region).bytes; }

const std::string& PageTable::region_name(RegionId region) const { return get(region).name; }

}  // namespace nustencil::numa
