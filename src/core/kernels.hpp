// Tap-specialized stencil kernel engine with runtime SIMD dispatch.
//
// Every scheme funnels its cell updates through one inner-row kernel, so
// this is the hottest code in the repo.  The engine provides that kernel
// in three ISA flavours (scalar / SSE2 / AVX2) times two coefficient
// layouts (constant star, banded matrix), each fully unrolled for the
// paper's hot tap counts (7/13/19-point — 3D orders 1..3, but keyed on
// the tap count alone, so e.g. the 2D order-3 13-point star hits the
// same specialization) with a runtime-`ntaps` generic fallback for
// everything else.
//
// The SIMD flavours live in their own translation units compiled with
// just the ISA flags they need (not -march=native), so a baseline x86-64
// build still contains the AVX2 kernels and picks them at *runtime* via
// CPUID.  Selection happens once per Executor, not per row.
//
// Bit-exactness contract: every variant produces bitwise-identical
// results to the scalar kernel (same per-cell tap summation order, no FP
// contraction — the kernel TUs are compiled with -ffp-contract=off), so
// scheme-vs-reference comparisons stay exact no matter which variant the
// dispatcher picks.
#pragma once

#include <string>

#include "common/types.hpp"

namespace nustencil::core {

inline constexpr int kMaxOrder = 8;
inline constexpr int kMaxTaps = 2 * kMaxOrder * 3 + 1;

/// User-facing kernel selection policy.
///   Auto        — best ISA the host supports, tap-specialized when possible
///   Scalar/SSE2/AVX2 — force one ISA (downgraded if unsupported)
enum class KernelPolicy { Auto, Scalar, SSE2, AVX2 };

/// Parses "auto|scalar|sse2|avx2" (case-insensitive); throws Error
/// listing the valid names otherwise.
KernelPolicy parse_kernel_policy(const std::string& name);
std::string to_string(KernelPolicy policy);

enum class KernelIsa { Scalar, SSE2, AVX2 };
std::string to_string(KernelIsa isa);

/// Host CPU features, probed once via CPUID (works regardless of the
/// flags this binary was compiled with).
struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
  static const CpuFeatures& host();
};

/// Per-sweep kernel context: everything that is loop-invariant across the
/// rows of one update_box call, hoisted out of the per-row path.
struct KernelArgs {
  double* dst = nullptr;                 ///< destination buffer (t+1)
  const double* src = nullptr;           ///< source buffer (t)
  const double* coeffs = nullptr;        ///< constant case: one per tap
  const double* const* bands = nullptr;  ///< banded case: one array per tap
  int ntaps = 0;                         ///< used by the generic kernels
  /// Row length in elements past the row base (the field's nx); required
  /// by the rotated kernels, which may read the centre source row
  /// anywhere in [row, row + xcap) while computing [x0, x1).  The other
  /// kernels ignore it and read [x0, x1) around each tap base.
  Index xcap = 0;
  /// Whole-row request (KernelChoice::whole_rows kernels only): a call
  /// with [x0, x1) == [0, xcap) is the whole periodic row, and the
  /// kernel wraps the x taps modulo xcap itself.  Other ranges keep the
  /// contract above.
  bool whole_rows = false;
};

/// Shortest row a whole-row call accepts: two AVX2 vectors, so the
/// rolling window's first and last loads stay inside the row.
inline constexpr Index kWholeRowMinNx = 8;

/// One row update: dst[db+x] = sum_p coeff_p(db+x) * src[bases[p]+x] for
/// x in [x0, x1).  `bases` holds per-tap source row bases with the x
/// offset folded in.  Wrap columns are the caller's job, except in a
/// whole-row call (KernelArgs::whole_rows), where the kernel reads the
/// x taps of cells near either end from the other end of the row and
/// returns what the caller's wrap-checked scalar loop would (a sum
/// started from +0.0).
using KernelFn = void (*)(const KernelArgs& args, const Index* bases, Index db,
                          Index x0, Index x1);

/// True when a fully unrolled variant exists for this tap count.
bool kernel_has_specialization(int ntaps);

/// The outcome of kernel selection, fixed once per Executor.
struct KernelChoice {
  KernelFn fn = nullptr;
  KernelIsa isa = KernelIsa::Scalar;
  bool banded = false;
  /// Kernel engine v2: the unit-stride taps come from in-register
  /// rotation of one centre-row load per output vector instead of
  /// 2*order+1 overlapping unaligned loads per vector.
  bool rotated = false;
  /// Full periodic rows run as one whole-row call (KernelArgs::whole_rows):
  /// a rotated kernel, rows of at least kWholeRowMinNx cells and no
  /// dependency checker.
  bool whole_rows = false;
  int ntaps = 0;
  /// Tap count fully unrolled?
  bool specialized() const { return kernel_has_specialization(ntaps); }
  /// e.g. "avx2+rot/7pt/const" or "sse2+generic/9pt/banded".
  std::string name() const;
};

/// Everything kernel selection wants to know about the sweep, beyond the
/// policy: the stencil geometry (rotation is keyed on the canonical
/// rank-3 star layout) and what decides whole-row calls.
struct KernelRequest {
  int ntaps = 0;
  bool banded = false;
  int rank = 0;   ///< 0 = unknown (disables rotation)
  int order = 0;
  Index nx = 0;   ///< row length; 0 = unknown (disables whole-row calls)
  bool checked = false;  ///< dependency checker attached (every cell scalar)
};

/// True when the ISA's kernels were compiled into this binary.
bool kernel_isa_compiled(KernelIsa isa);

/// Compiled AND supported by the host CPU.
bool kernel_isa_supported(KernelIsa isa);

/// Low-level selection at a fixed ISA (no host checks — the caller must
/// only run the result on a machine that supports `isa`).  The tap count
/// decides between the unrolled and the generic body.
KernelChoice select_kernel_isa(KernelIsa isa, int ntaps, bool banded);

/// Selection against the host CPU: resolves Auto, downgrades unsupported
/// requests (AVX2 -> SSE2 -> Scalar), and picks the v2 rotated
/// kernels for canonical rank-3 stars of order 1..3 on AVX2.  A request
/// with rank unknown never rotates.  Sets KernelChoice::whole_rows.
KernelChoice select_kernel(KernelPolicy policy, const KernelRequest& request);

/// Human-readable report for `nustencil --explain`: detected CPU
/// features, the policy, the chosen variant and why, and how periodic
/// rows run.
std::string explain_kernel_choice(KernelPolicy policy, const KernelRequest& request);

}  // namespace nustencil::core
