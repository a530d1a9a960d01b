// Singular value decomposition: QR-preconditioned one-sided Jacobi.
//
// One-sided Jacobi computes small singular values with high relative
// accuracy — which is exactly what PMTBR's order control needs, since
// truncation decisions are made on trailing singular values many orders of
// magnitude below the leading one.
//
// The kernel (Drmač–Veselić) factors the tall orientation B of the input
// (A, or Aᵀ when A is wide) as B·P = Q·T with a column-pivoted Householder
// QR, then runs serial cyclic Jacobi on the rows of the k×k triangle T,
// k = min(m, n). Pivoting grades T's rows, so the sweeps converge in a
// handful of passes, and every rotation touches two contiguous rows.
// B's right singular vectors come out as the normalized rotated rows of T;
// only B's left vectors need the rotations accumulated and multiplied into
// Q. So the singular values, and the left vectors of a wide (or square)
// matrix, cost no accumulation at all — that is the svd_left path the
// PMTBR compressor takes on its rank×m R factor.
//
// Complex sample matrices are handled upstream by realification
// (la::realify_columns), which is equivalent to including conjugate
// sample pairs (paper Algorithm 1, step 5).
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "util/status.hpp"

namespace pmtbr::la {

struct SvdResult {
  MatD u;               // m×k, orthonormal columns
  std::vector<double> s;  // k singular values, descending
  MatD v;               // n×k, orthonormal columns; A = U diag(S) V^T
};

/// Thin SVD of an m×n real matrix (any shape), k = min(m, n).
SvdResult svd(const MatD& a);

/// Status-carrying SVD: kNoConvergence if the Jacobi sweep budget is
/// exhausted (svd() returns the usable approximation instead),
/// kInjectedFault under the svd.converge site.
util::Expected<SvdResult> try_svd(const MatD& a);

/// Singular values and left singular vectors only (`v` stays empty). For
/// m <= n no rotation is accumulated and Q is never formed.
SvdResult svd_left(const MatD& a);

/// Singular values only: no rotation is accumulated and Q is never formed.
/// Bit-identical to svd_left(a).s.
std::vector<double> singular_values(const MatD& a);

}  // namespace pmtbr::la
