// AVX2 kernel flavours.
//
// This TU is compiled with the *baseline* flags; the AVX2 code below sits
// inside a `#pragma GCC target("avx2")` region instead of a per-file
// -mavx2 flag, so a generic x86-64 build still carries these kernels and
// enables them at runtime via CPUID, while everything the region does NOT
// cover (notably shared inline helpers from common headers, which are
// included *before* the pragma) keeps baseline codegen — the linker can
// never pick an AVX2-compiled copy of a shared comdat symbol for the
// scalar path.
//
// Two engines live here:
//   v1 — the traits-instantiated kernel_row bodies (kernels_impl.hpp):
//        per-tap unaligned vector loads, register-blocked along x.
//   v2 — rotated kernels for the canonical rank-3 stars (order 1..3):
//        the 2*order+1 unit-stride taps are produced by in-register
//        rotation of one centre-row load per output vector.
//
// Both use separate mul + add and keep the strict spec-order tap chain,
// so they stay bit-identical to the scalar kernels.  The region enables
// AVX2 only, not FMA, so no kernel here can emit a fused instruction.
#include "core/kernels_detail.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

// Everything shared with other TUs is included before the target pragma
// so its inline definitions are compiled for the baseline ISA.
#include <immintrin.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/kernels.hpp"

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

// The v1 template bodies are included *inside* the region: they are only
// ever instantiated with the anonymous-namespace traits below, so every
// instantiation has internal linkage and AVX2 codegen, and none of it can
// leak into another TU.
#include "core/kernels_impl.hpp"

namespace {

using nustencil::Index;
using nustencil::round_up;
using nustencil::core::KernelArgs;
using nustencil::core::KernelFn;

struct VecAvx2 {
  using reg = __m256d;
  static constexpr int width = 4;
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg broadcast(double c) { return _mm256_set1_pd(c); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static reg mul_add(reg a, reg b, reg acc) {
    return _mm256_add_pd(_mm256_mul_pd(a, b), acc);
  }
};

template <int N>
using IC = std::integral_constant<int, N>;

/// Lanes K..K+3 of the 8-double concatenation [a0..a3 b0..b3] — the
/// in-register rotation primitive.  vpermpd/valignr have no 256-bit
/// double forms, so K = 1..3 are built from one cross-lane permute
/// (latency 3) plus at most one in-lane shuffle (latency 1); every K
/// reuses the same permute result, so a full tap fan-out from (prev,
/// cur, next) costs two permutes total.
template <int K>
inline __m256d shift(__m256d a, __m256d b) {
  static_assert(K >= 0 && K <= 4);
  if constexpr (K == 0) {
    return a;
  } else if constexpr (K == 4) {
    return b;
  } else if constexpr (K == 2) {
    return _mm256_permute2f128_pd(a, b, 0x21);  // [a2 a3 b0 b1]
  } else if constexpr (K == 1) {
    const __m256d t = _mm256_permute2f128_pd(a, b, 0x21);
    return _mm256_shuffle_pd(a, t, 0b0101);  // [a1 a2 a3 b0]
  } else {  // K == 3
    const __m256d t = _mm256_permute2f128_pd(a, b, 0x21);
    return _mm256_shuffle_pd(t, b, 0b0101);  // [a3 b0 b1 b2]
  }
}

/// Kernel engine v2 row body for the canonical rank-3 star of ORDER
/// (taps in spec order: centre, x -ORDER..-1 then +1..+ORDER, then the
/// y/z taps).  The unit-stride taps are rotated out of a rolling window
/// of centre-row loads: one new 32B load per output vector instead of
/// 2*ORDER+1 overlapping loads.  The window stays inside
/// [row, row + KernelArgs::xcap).  A whole-row call
/// (KernelArgs::whole_rows) wraps the x taps in registers: the row's
/// first and last vectors stand in for the cells past either end.
/// [[gnu::flatten]] inlines every lambda below: left out of line, each
/// tap chain would run as a call per output vector.
template <int ORDER, bool BANDED>
[[gnu::flatten]] void kernel_row_v2(const KernelArgs& k, const Index* bases,
                                    Index db, Index x0, Index x1) {
  constexpr int W = 4;
  constexpr int NT = 6 * ORDER + 1;
  double* __restrict dst = k.dst;
  const double* __restrict src = k.src;
  const double* __restrict coeffs = k.coeffs;

  const Index row = bases[0];
  const Index xcap = k.xcap;

  Index base[NT];
  [[maybe_unused]] __m256d creg[NT];
  [[maybe_unused]] const double* bp[NT];
  for (int p = 0; p < NT; ++p) base[p] = bases[p];
  if constexpr (BANDED) {
    for (int p = 0; p < NT; ++p) bp[p] = k.bands[p] + db;
  } else {
    for (int p = 0; p < NT; ++p) creg[p] = _mm256_set1_pd(coeffs[p]);
  }

  // Scalar cell update, identical tap order to the scalar kernel's tail.
  const auto scalar_cell = [&](Index x) {
    double acc;
    if constexpr (BANDED) {
      acc = bp[0][x] * src[base[0] + x];
      for (int p = 1; p < NT; ++p) acc += bp[p][x] * src[base[p] + x];
    } else {
      acc = coeffs[0] * src[base[0] + x];
      for (int p = 1; p < NT; ++p) acc += coeffs[p] * src[base[p] + x];
    }
    dst[db + x] = acc;
  };

  // One output vector at x, taps supplied by `tap(IC<p>{})`: one serial
  // chain in strict spec order (bit-exact vs scalar).
  const auto accumulate = [&](Index x, auto&& tap) -> __m256d {
    const auto coeff = [&](auto pc) -> __m256d {
      constexpr int P = decltype(pc)::value;
      if constexpr (BANDED)
        return _mm256_loadu_pd(bp[P] + x);
      else
        return creg[P];
    };
    const auto step = [&](auto pc, __m256d acc) -> __m256d {
      return _mm256_add_pd(_mm256_mul_pd(coeff(pc), tap(pc)), acc);
    };
    __m256d acc = _mm256_mul_pd(coeff(IC<0>{}), tap(IC<0>{}));
    [&]<std::size_t... P>(std::index_sequence<P...>) {
      ((acc = step(IC<static_cast<int>(P) + 1>{}, acc)), ...);
    }(std::make_index_sequence<NT - 1>{});
    return acc;
  };

  // Rotated update: the x-dimension taps come from shifting the rolling
  // (prev, cur, next) window of the centre row; y/z taps load from their
  // own rows as usual.
  const auto update_rotated = [&](Index x, __m256d prev, __m256d cur,
                                  __m256d next) -> __m256d {
    const auto tap = [&](auto pc) -> __m256d {
      constexpr int P = decltype(pc)::value;
      if constexpr (P == 0) {
        return cur;
      } else if constexpr (P <= 2 * ORDER) {
        // Spec x-tap order: p = 1..ORDER are offsets -ORDER..-1,
        // p = ORDER+1..2*ORDER are offsets +1..+ORDER.
        constexpr int off = P <= ORDER ? P - 1 - ORDER : P - ORDER;
        if constexpr (off < 0)
          return shift<W + off>(prev, cur);
        else
          return shift<off>(cur, next);
      } else {
        return _mm256_loadu_pd(src + base[P] + x);
      }
    };
    return accumulate(x, tap);
  };

  // Per-tap-load update, the v1 read pattern: used near the row end when
  // the rolling next-block read would cross xcap.  Reads stay within
  // [x0 - ORDER, x1 + ORDER) around each tap base.
  const auto update_per_tap = [&](Index x) -> __m256d {
    const auto tap = [&](auto pc) -> __m256d {
      constexpr int P = decltype(pc)::value;
      return _mm256_loadu_pd(src + base[P] + x);
    };
    return accumulate(x, tap);
  };
  const auto store = [&](Index xs, __m256d v) {
    _mm256_storeu_pd(dst + db + xs, v);
  };
  const auto centre = [&](Index xs) { return _mm256_loadu_pd(src + row + xs); };
  // Whole periodic row, xcap >= 2W.  The caller's wrap-checked loop sums
  // a wrap cell (x < ORDER or x >= xcap - ORDER) from +0.0, which differs
  // from the kernel's sum only when that is -0.0; adding +0.0 to wrap
  // lanes and -0.0 (the identity) to the others matches it bitwise.
  // Only the first vector and the tail vectors hold wrap lanes, because
  // ORDER < W.
  const bool whole = k.whole_rows && x0 == 0 && x1 == xcap;
  const auto store_edge = [&](Index xs, __m256d v) {
    const __m256i lane = _mm256_add_epi64(_mm256_set1_epi64x(xs),
                                          _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256i wrap = _mm256_or_si256(
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(ORDER), lane),
        _mm256_cmpgt_epi64(lane, _mm256_set1_epi64x(xcap - ORDER - 1)));
    const __m256d seed =
        _mm256_andnot_pd(_mm256_castsi256_pd(wrap), _mm256_set1_pd(-0.0));
    store(xs, _mm256_add_pd(v, seed));
  };

  Index x = x0;
  __m256d prev = _mm256_setzero_pd(), cur = prev, first = prev, last = prev;
  bool rolling = false;
  if (whole) {
    // The row's last vector stands in for the cells left of x = 0.
    first = centre(0);
    last = centre(xcap - W);
    prev = first;
    cur = centre(W);
    store_edge(0, update_rotated(0, last, first, cur));
    x = W;
    rolling = true;
  } else {
    // Peel scalar cells up to the next multiple of W, so the centre-row
    // loads are 32B-aligned whenever the row base is, and always past
    // the first W cells, so the rolling window's prev load at
    // row + x - W stays inside the row.
    const Index xa = std::min(x1, round_up(std::max<Index>(x0, W), W));
    for (; x < xa; ++x) scalar_cell(x);
    if (x + W <= x1 && x + 2 * W <= xcap) {
      prev = centre(x - W);
      cur = centre(x);
      rolling = true;
    }
  }
  if (rolling) {
    // Four output vectors per iteration: four new centre-row loads feed
    // four rotated updates, so the shuffle results are all reused and
    // the independent accumulator chains hide the add latency.
    for (; x + 4 * W <= x1 && x + 5 * W <= xcap; x += 4 * W) {
      const __m256d r1 = centre(x + W);
      const __m256d r2 = centre(x + 2 * W);
      const __m256d r3 = centre(x + 3 * W);
      const __m256d r4 = centre(x + 4 * W);
      store(x, update_rotated(x, prev, cur, r1));
      store(x + W, update_rotated(x + W, cur, r1, r2));
      store(x + 2 * W, update_rotated(x + 2 * W, r1, r2, r3));
      store(x + 3 * W, update_rotated(x + 3 * W, r2, r3, r4));
      prev = r3;
      cur = r4;
    }
    for (; x + W <= x1 && x + 2 * W <= xcap; x += W) {
      const __m256d next = centre(x + W);
      store(x, update_rotated(x, prev, cur, next));
      prev = cur;
      cur = next;
    }
  }
  if (whole) {
    // Now xcap - 2W < x <= xcap - W.  When W does not divide xcap, the
    // vector at x reads its right taps from the 2W-cell wrapped window
    // (last, first), and the vector at xcap - W overlaps it, writing the
    // same values again.  The row's first vector stands in for the cells
    // right of xcap - 1.
    const Index rem = xcap % W;
    if (rem != 0) {
      const __m256d next = rem == 1   ? shift<3>(last, first)
                           : rem == 2 ? shift<2>(last, first)
                                      : shift<1>(last, first);
      store_edge(x, update_rotated(x, prev, cur, next));
      prev = centre(xcap - 2 * W);
    }
    store_edge(xcap - W, update_rotated(xcap - W, prev, last, first));
    return;
  }
  for (; x + W <= x1; x += W) store(x, update_per_tap(x));
  for (; x < x1; ++x) scalar_cell(x);
}

// In-region selection wrappers: taking the template addresses *here*
// forces every instantiation to happen inside the target region.
KernelFn pick_v1_avx2(int ntaps, bool banded) {
  return nustencil::core::kernel_impl::pick_kernel<VecAvx2>(ntaps, banded);
}

template <int ORDER>
KernelFn pick_v2_order(bool banded) {
  return banded ? &kernel_row_v2<ORDER, true> : &kernel_row_v2<ORDER, false>;
}

KernelFn pick_v2_avx2(int order, bool banded) {
  switch (order) {
    case 1:
      return pick_v2_order<1>(banded);
    case 2:
      return pick_v2_order<2>(banded);
    case 3:
      return pick_v2_order<3>(banded);
    default:
      return nullptr;
  }
}

}  // namespace

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

namespace nustencil::core::detail {

KernelFn avx2_kernel(int ntaps, bool banded) {
  return pick_v1_avx2(ntaps, banded);
}

KernelFn avx2_kernel_v2(int order, bool banded) {
  return pick_v2_avx2(order, banded);
}

bool avx2_compiled() { return true; }

}  // namespace nustencil::core::detail

#else  // not x86 with a GNU-flavoured compiler

namespace nustencil::core::detail {

KernelFn avx2_kernel(int, bool) { return nullptr; }
KernelFn avx2_kernel_v2(int, bool) { return nullptr; }
bool avx2_compiled() { return false; }

}  // namespace nustencil::core::detail

#endif
