// Reference SVD for agreement tests: the plain cyclic one-sided Jacobi that
// la::svd used before QR preconditioning. It rotates strided columns of the
// tall orientation and accumulates V, so it is slow, but it shares no code
// with the shipped kernel — an independent oracle.
#pragma once

#include "la/svd.hpp"

namespace pmtbr::la::oracle {

/// Thin SVD of any shape (k = min(m, n)); `sweeps` receives the number of
/// Jacobi sweeps (60 when the budget ran out).
SvdResult svd_reference(const MatD& a, int* sweeps = nullptr);

}  // namespace pmtbr::la::oracle
