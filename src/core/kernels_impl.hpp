// Kernel bodies, templated over a per-ISA vector traits class.
//
// Each ISA translation unit (kernels.cpp, kernels_sse2.cpp,
// kernels_avx2.cpp) defines its traits struct inside an anonymous
// namespace and includes this header, so every instantiation has
// internal linkage and is compiled with exactly that TU's ISA flags —
// the linker can never merge an AVX2-compiled instantiation into a
// baseline build's scalar path.
//
// A traits class V provides:
//   using reg = <vector register type>;
//   static constexpr int width;                 // doubles per register
//   static reg  load(const double* p);          // unaligned
//   static void store(double* p, reg v);
//   static reg  broadcast(double c);
//   static reg  mul(reg a, reg b);
//   static reg  mul_add(reg a, reg b, reg acc); // add(mul(a, b), acc),
//                                               // never fused
//
// Bit-exactness: per cell the taps are summed strictly in spec order
// (acc = c0*s0; acc += c1*s1; ...), identically in every lane, in the
// vector remainder and in the scalar tail, so every variant agrees
// bitwise with the scalar kernel.
#pragma once

#include <utility>

#include "core/kernels.hpp"

namespace nustencil::core::kernel_impl {

/// NTAPS > 0: fully unrolled specialization; NTAPS == 0: runtime ntaps.
/// [[gnu::flatten]] inlines every lambda and traits call below, so the
/// unrolled tap chains compile to straight-line code, not calls.
template <class V, int NTAPS, bool BANDED>
[[gnu::flatten]] void kernel_row(const KernelArgs& k, const Index* bases,
                                 Index db, Index x0, Index x1) {
  using reg = typename V::reg;
  constexpr int W = V::width;
  const int nt = NTAPS > 0 ? NTAPS : k.ntaps;
  double* __restrict dst = k.dst;
  const double* __restrict src = k.src;
  const double* __restrict coeffs = k.coeffs;

  // Hoist the per-row invariants into locals once: per-tap source row
  // bases, broadcast coefficient registers (constant case) or band row
  // pointers (banded case).  Without the hoist (and __restrict) the
  // compiler must assume the dst store may alias the coefficients and
  // re-broadcasts them every x iteration.
  constexpr int kCap = NTAPS > 0 ? NTAPS : kMaxTaps;
  Index base[static_cast<std::size_t>(kCap)];
  [[maybe_unused]] reg creg[static_cast<std::size_t>(kCap)];
  [[maybe_unused]] const double* bp[static_cast<std::size_t>(kCap)];
  for (int p = 0; p < nt; ++p) base[p] = bases[p];
  if constexpr (BANDED) {
    for (int p = 0; p < nt; ++p) bp[p] = k.bands[p] + db;
  } else {
    for (int p = 0; p < nt; ++p) creg[p] = V::broadcast(coeffs[p]);
  }

  // Applies body(p) for taps p = 1..nt-1.  Expanded as a compile-time
  // fold when NTAPS is a constant: a plain `for (p < NTAPS)` loop stays
  // rolled at -O2, which spills creg[] to the stack and re-reads every
  // tap base per iteration — the unroll is the whole point of the
  // specialization.
  const auto for_each_tap = [&](auto&& body) {
    if constexpr (NTAPS > 0) {
      [&]<std::size_t... P>(std::index_sequence<P...>) {
        (body(static_cast<int>(P) + 1), ...);
      }(std::make_index_sequence<static_cast<std::size_t>(NTAPS > 0 ? NTAPS - 1 : 0)>{});
    } else {
      for (int p = 1; p < nt; ++p) body(p);
    }
  };

  Index x = x0;
  // Register-blocked main loop: four vectors in flight along x.  The
  // per-lane tap chain is serial (required for bit-exactness), so the
  // independent accumulator chains are what hides the add latency.
  for (; x + 4 * W <= x1; x += 4 * W) {
    reg a0, a1, a2, a3;
    if constexpr (BANDED) {
      a0 = V::mul(V::load(bp[0] + x), V::load(src + base[0] + x));
      a1 = V::mul(V::load(bp[0] + x + W), V::load(src + base[0] + x + W));
      a2 = V::mul(V::load(bp[0] + x + 2 * W), V::load(src + base[0] + x + 2 * W));
      a3 = V::mul(V::load(bp[0] + x + 3 * W), V::load(src + base[0] + x + 3 * W));
      for_each_tap([&](int p) {
        a0 = V::mul_add(V::load(bp[p] + x), V::load(src + base[p] + x), a0);
        a1 = V::mul_add(V::load(bp[p] + x + W), V::load(src + base[p] + x + W), a1);
        a2 = V::mul_add(V::load(bp[p] + x + 2 * W), V::load(src + base[p] + x + 2 * W), a2);
        a3 = V::mul_add(V::load(bp[p] + x + 3 * W), V::load(src + base[p] + x + 3 * W), a3);
      });
    } else {
      a0 = V::mul(creg[0], V::load(src + base[0] + x));
      a1 = V::mul(creg[0], V::load(src + base[0] + x + W));
      a2 = V::mul(creg[0], V::load(src + base[0] + x + 2 * W));
      a3 = V::mul(creg[0], V::load(src + base[0] + x + 3 * W));
      for_each_tap([&](int p) {
        a0 = V::mul_add(creg[p], V::load(src + base[p] + x), a0);
        a1 = V::mul_add(creg[p], V::load(src + base[p] + x + W), a1);
        a2 = V::mul_add(creg[p], V::load(src + base[p] + x + 2 * W), a2);
        a3 = V::mul_add(creg[p], V::load(src + base[p] + x + 3 * W), a3);
      });
    }
    V::store(dst + db + x, a0);
    V::store(dst + db + x + W, a1);
    V::store(dst + db + x + 2 * W, a2);
    V::store(dst + db + x + 3 * W, a3);
  }
  // Two-vector remainder.
  for (; x + 2 * W <= x1; x += 2 * W) {
    reg a0, a1;
    if constexpr (BANDED) {
      a0 = V::mul(V::load(bp[0] + x), V::load(src + base[0] + x));
      a1 = V::mul(V::load(bp[0] + x + W), V::load(src + base[0] + x + W));
      for_each_tap([&](int p) {
        a0 = V::mul_add(V::load(bp[p] + x), V::load(src + base[p] + x), a0);
        a1 = V::mul_add(V::load(bp[p] + x + W), V::load(src + base[p] + x + W), a1);
      });
    } else {
      a0 = V::mul(creg[0], V::load(src + base[0] + x));
      a1 = V::mul(creg[0], V::load(src + base[0] + x + W));
      for_each_tap([&](int p) {
        a0 = V::mul_add(creg[p], V::load(src + base[p] + x), a0);
        a1 = V::mul_add(creg[p], V::load(src + base[p] + x + W), a1);
      });
    }
    V::store(dst + db + x, a0);
    V::store(dst + db + x + W, a1);
  }
  // Single-vector remainder.
  for (; x + W <= x1; x += W) {
    reg a0;
    if constexpr (BANDED) {
      a0 = V::mul(V::load(bp[0] + x), V::load(src + base[0] + x));
      for_each_tap([&](int p) {
        a0 = V::mul_add(V::load(bp[p] + x), V::load(src + base[p] + x), a0);
      });
    } else {
      a0 = V::mul(creg[0], V::load(src + base[0] + x));
      for_each_tap([&](int p) {
        a0 = V::mul_add(creg[p], V::load(src + base[p] + x), a0);
      });
    }
    V::store(dst + db + x, a0);
  }
  // Scalar tail, same tap order.
  for (; x < x1; ++x) {
    double acc;
    if constexpr (BANDED) {
      acc = bp[0][x] * src[base[0] + x];
      for (int p = 1; p < nt; ++p) acc += bp[p][x] * src[base[p] + x];
    } else {
      acc = coeffs[0] * src[base[0] + x];
      for (int p = 1; p < nt; ++p) acc += coeffs[p] * src[base[p] + x];
    }
    dst[db + x] = acc;
  }
}

/// The variant table of one traits class: specialized for the hot tap
/// counts (3D 7/13/19-point stars and tap-count twins), generic otherwise.
template <class V>
KernelFn pick_kernel(int ntaps, bool banded) {
  switch (ntaps) {
    case 7:
      return banded ? &kernel_row<V, 7, true> : &kernel_row<V, 7, false>;
    case 13:
      return banded ? &kernel_row<V, 13, true> : &kernel_row<V, 13, false>;
    case 19:
      return banded ? &kernel_row<V, 19, true> : &kernel_row<V, 19, false>;
    default:
      return banded ? &kernel_row<V, 0, true> : &kernel_row<V, 0, false>;
  }
}

}  // namespace nustencil::core::kernel_impl
