// Reference executor and result comparison.
//
// The reference is a plain double-buffered Jacobi sweep: every scheme must
// produce the same values (Jacobi updates are order-independent, so the
// match is exact up to identical FP operations).
#pragma once

#include "core/boundary.hpp"
#include "core/field.hpp"

namespace nustencil::core {

/// Runs `timesteps` Jacobi updates single-threaded.  The result of time
/// step `timesteps` is in problem.buffer(timesteps).  Under a Dirichlet
/// boundary the rim of width `order` is frozen (copied into the second
/// buffer once) and only updatable_box() is swept.
void reference_run(Problem& problem, long timesteps,
                   const Boundary& boundary = Boundary::periodic());

/// Maximum |a-b| / max(1, |a|, |b|) over both fields.
double max_rel_diff(const Field& a, const Field& b);

}  // namespace nustencil::core
