// Householder QR factorization (real and complex), with optional column
// pivoting for rank-revealing use.
//
// PMTBR's on-the-fly order control (paper Sec. V-C) uses the pivoted QR as
// the cheap rank-revealing factorization in place of repeated SVDs.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace pmtbr::la {

template <typename T>
struct QrResult {
  Matrix<T> q;               // m×k with orthonormal columns (thin), k = min(m,n)
  Matrix<T> r;               // k×n upper triangular (column-permuted if pivoted)
  std::vector<index> perm;   // column permutation; r applies to A(:,perm)
  index rank = 0;            // numerical rank estimate (pivoted only; else k)
};

/// Thin QR of an m×n matrix (m >= n is typical; m < n allowed). Large
/// factorizations take the blocked compact-WY path (panel Householder
/// factorization + GEMM trailing updates); small ones the unblocked loop.
template <typename T>
QrResult<T> qr(const Matrix<T>& a);

/// The seed unblocked Householder loop, kept as the comparison oracle for
/// the blocked path's backward-error tests and bench_kernels records.
template <typename T>
QrResult<T> qr_reference(const Matrix<T>& a);

/// Column-pivoted thin QR; `rank` counts diagonal entries of R above
/// rel_tol * |R(0,0)|.
template <typename T>
QrResult<T> qr_pivoted(const Matrix<T>& a, double rel_tol = 1e-12);

/// Column-pivoted QR that never forms Q (`q` stays empty; `rank` counts the
/// nonzero diagonal entries of R): the SVD's preconditioner when no
/// singular vector needs Q.
template <typename T>
QrResult<T> qr_pivoted_r(const Matrix<T>& a);

/// Orthonormal basis of the column space of A: the first `rank` columns of
/// the pivoted Q.
template <typename T>
Matrix<T> orth(const Matrix<T>& a, double rel_tol = 1e-12);

using QrD = QrResult<double>;
using QrC = QrResult<cd>;

}  // namespace pmtbr::la
