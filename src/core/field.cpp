#include "core/field.hpp"

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace nustencil::core {

Field::Field(Coord shape)
    : shape_(shape), strides_(strides_for(shape)), volume_(shape.product()),
      buffer_(static_cast<std::size_t>(volume_) * sizeof(double)),
      data_(reinterpret_cast<double*>(buffer_.data())) {
  NUSTENCIL_CHECK(shape.rank() >= 1, "Field: shape must have rank >= 1");
  for (int d = 0; d < shape.rank(); ++d)
    NUSTENCIL_CHECK(shape[d] >= 1, "Field: extents must be positive");
}

void Field::attach(numa::PageTable& pages, const std::string& name) {
  region_ = pages.register_region(
      name, volume_ * static_cast<Index>(sizeof(double)));
}

numa::RegionId Field::region() const {
  NUSTENCIL_CHECK(region_.has_value(), "Field::region: field not attached");
  return *region_;
}

Problem::Problem(Coord shape, StencilSpec stencil)
    : shape_(shape), stencil_(std::move(stencil)) {
  NUSTENCIL_CHECK(shape.rank() == stencil_.rank(),
                  "Problem: shape rank must match stencil rank");
  for (int d = 0; d < shape.rank(); ++d)
    NUSTENCIL_CHECK(shape[d] > 2 * stencil_.order(),
                    "Problem: extents must exceed the stencil diameter");
  u_.emplace_back(shape);
  u_.emplace_back(shape);
  if (stencil_.banded()) {
    for (int p = 0; p < stencil_.npoints(); ++p) bands_.emplace_back(shape);
  }
}

Field& Problem::band(int p) {
  NUSTENCIL_CHECK(has_bands(), "Problem::band: constant-coefficient problem");
  NUSTENCIL_CHECK(p >= 0 && p < static_cast<int>(bands_.size()), "Problem::band: bad tap");
  return bands_[static_cast<std::size_t>(p)];
}

const Field& Problem::band(int p) const {
  return const_cast<Problem*>(this)->band(p);
}

// Deterministic hash-based value in [0, 1), independent of traversal order.
double initial_value(Index cell, unsigned seed) {
  std::uint64_t x = static_cast<std::uint64_t>(cell) * 2654435761u + seed + 1;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<double>(x % 10000) / 10000.0;
}

void Problem::fill_row(Index begin, Index end, unsigned seed) {
  NUSTENCIL_CHECK(begin >= 0 && end <= volume() && begin <= end,
                  "Problem::fill_row: range out of bounds");
  Field& u0 = u_[0];
  const int taps = stencil_.npoints();
  for (Index cell = begin; cell < end; ++cell) {
    u0.data()[cell] = initial_value(cell, seed);
    if (bands_.empty()) continue;
    // Per-cell positive weights summing to 1: centre 0.5, the rest share
    // 0.5 with a cell-dependent perturbation (keeps iteration stable).
    double sum = 0.0;
    for (int p = 1; p < taps; ++p) {
      const double w = 1.0 + 0.5 * initial_value(cell * taps + p, seed);
      bands_[static_cast<std::size_t>(p)].data()[cell] = w;
      sum += w;
    }
    for (int p = 1; p < taps; ++p)
      bands_[static_cast<std::size_t>(p)].data()[cell] *= 0.5 / sum;
    bands_[0].data()[cell] = 0.5;
  }
}

void Problem::initialize(unsigned seed) { fill_row(0, volume(), seed); }

void Problem::attach(numa::PageTable& pages) {
  u_[0].attach(pages, "u0");
  u_[1].attach(pages, "u1");
  for (std::size_t p = 0; p < bands_.size(); ++p)
    bands_[p].attach(pages, "band" + std::to_string(p));
}

}  // namespace nustencil::core
