// Internal cross-TU hooks of the kernel engine: each ISA translation
// unit exports exactly one factory (plus a "was this ISA compiled in"
// probe).  On targets where the compiler cannot produce the ISA the
// factory returns nullptr and the dispatcher falls back.
#pragma once

#include "core/kernels.hpp"

namespace nustencil::core::detail {

KernelFn sse2_kernel(int ntaps, bool banded);
bool sse2_compiled();

KernelFn avx2_kernel(int ntaps, bool banded);

/// Kernel engine v2: in-register rotation over the unit-stride taps of
/// the canonical rank-3 star of `order` (1..3).  Rotation needs
/// KernelArgs::xcap from the caller.  Returns nullptr for unsupported
/// orders or when the ISA is not compiled in.
KernelFn avx2_kernel_v2(int order, bool banded);

bool avx2_compiled();

}  // namespace nustencil::core::detail
