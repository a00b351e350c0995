// SSE2 kernel flavours.  Like kernels_avx2.cpp, the vector code sits in
// a `#pragma GCC target("sse2")` region instead of a per-file -msse2 flag
// (a no-op on x86-64 where SSE2 is baseline, but it keeps the i386 build
// honest); -ffp-contract=off comes from the TU's compile options.  On
// targets without a GNU-flavoured x86 compiler the factory compiles to a
// stub and the dispatcher never offers this ISA.
#include "core/kernels_detail.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

// Shared headers before the pragma so their inline definitions keep
// baseline codegen (see kernels_avx2.cpp).
#include <emmintrin.h>

#include <utility>

#include "core/kernels.hpp"

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("sse2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("sse2")
#endif

#include "core/kernels_impl.hpp"

namespace {

using nustencil::core::KernelFn;

struct VecSse2 {
  using reg = __m128d;
  static constexpr int width = 2;
  static reg load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, reg v) { _mm_storeu_pd(p, v); }
  static reg broadcast(double c) { return _mm_set1_pd(c); }
  static reg mul(reg a, reg b) { return _mm_mul_pd(a, b); }
  static reg mul_add(reg a, reg b, reg acc) {
    return _mm_add_pd(_mm_mul_pd(a, b), acc);
  }
};

// In-region wrapper so every template instantiation happens inside the
// target region.
KernelFn pick_sse2(int ntaps, bool banded) {
  return nustencil::core::kernel_impl::pick_kernel<VecSse2>(ntaps, banded);
}

}  // namespace

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

namespace nustencil::core::detail {

KernelFn sse2_kernel(int ntaps, bool banded) { return pick_sse2(ntaps, banded); }

bool sse2_compiled() { return true; }

}  // namespace nustencil::core::detail

#else  // not x86 with a GNU-flavoured compiler

namespace nustencil::core::detail {

KernelFn sse2_kernel(int, bool) { return nullptr; }
bool sse2_compiled() { return false; }

}  // namespace nustencil::core::detail

#endif
