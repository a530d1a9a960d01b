// Incremental sample-matrix compressor for on-the-fly order control
// (paper Sec. V-C).
//
// Maintains a growing factorization  Z_(i) W = Q R  with Q orthonormal so
// that absorbing a new sample block costs O(n·k·rank) GEMM flops instead
// of a fresh SVD of everything, and the singular values of Z_(i) W are
// recovered from the small rank×m matrix R. This plays the role the paper
// assigns to updatable rank-revealing factorizations (RRQR/UTV): cheap
// trailing-singular-value estimates after every sample, plus an
// orthonormal basis for the dominant subspace.
//
// Two absorption paths:
//  - kBlocked (default): two passes of block classical Gram–Schmidt
//    against the existing basis (three GEMMs per pass), then a TSQR of the
//    n×k residual block and an SVD of its small k×k R factor to decide
//    which new directions survive drop_tol. One factorization per block
//    instead of per column.
//  - kReference: the seed per-column modified Gram–Schmidt loop, kept as
//    the comparison oracle for tests and bench_kernels.
//
// Both paths are deterministic for any thread count: the blocked path's
// GEMM and TSQR building blocks are bit-reproducible by construction.
//
// A finish factors R exactly once: dominant() takes one SVD of R and reads
// the order, the basis and the reported singular values off it. The
// singular_values / basis / order_for_tolerance accessors are thin wrappers
// that each pay for their own SVD. Every query is const and keeps no memo,
// so one compressor may serve concurrent finishes.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace pmtbr::mor {

using la::index;
using la::MatD;

enum class CompressorMode {
  kBlocked,    // block Gram–Schmidt + TSQR + small SVD
  kReference,  // seed per-column modified Gram–Schmidt
};

/// Order rule of a finish (paper Sec. V-C): a positive `fixed_order` wins
/// (clamped to the rank); otherwise the smallest order whose trailing
/// singular-value sum is at most truncation_tol·σ₁. A positive `max_order`
/// then caps it, and the order is at least 1.
struct OrderRule {
  index fixed_order = -1;
  double truncation_tol = 1e-8;
  index max_order = -1;
};

/// What a finish reads off the absorbed matrix, from one SVD of R.
struct Dominant {
  std::vector<double> singular_values;  // all rank() of them, descending
  MatD basis;                           // n×order, orthonormal dominant left subspace
};

class IncrementalCompressor {
 public:
  /// `n` is the state dimension; `drop_tol` is the relative norm below which
  /// a new direction adds nothing to Q.
  explicit IncrementalCompressor(index n, double drop_tol = 1e-13,
                                 CompressorMode mode = CompressorMode::kBlocked);

  /// Absorbs the columns of `block` (already weight-scaled by the caller).
  /// Returns the Frobenius norm of the block's component orthogonal to the
  /// basis as it stood BEFORE the call — the "novelty" of the block, free
  /// of charge from the Gram–Schmidt projection (adaptive sampling used
  /// to recompute this with two n×k products per sample).
  double add_columns(const MatD& block);

  index n() const { return n_; }
  index rank() const { return rank_; }
  index columns_absorbed() const { return m_; }

  /// One SVD of R: the singular values of the absorbed matrix and the
  /// dominant left singular subspace of the order `rule` picks from them.
  Dominant dominant(const OrderRule& rule) const;

  /// Singular values of the absorbed matrix, descending (length = rank()).
  std::vector<double> singular_values() const;

  /// Orthonormal basis for the dominant `order`-dimensional left singular
  /// subspace (order clamped to rank()).
  MatD basis(index order) const;

  /// Smallest order q whose trailing singular-value sum satisfies
  /// sum_{i>q} σ_i <= tol * σ_1 — the paper's "small tail" criterion.
  index order_for_tolerance(double tol) const;

  /// The rank×m R factor of Z W = Q R (one column per absorbed column).
  MatD r_factor() const;

 private:
  /// Per-block scratch reused across add_columns calls; Matrix::resize
  /// keeps the allocations once they have grown to the working size.
  struct Workspace {
    MatD resid;  // n×k working copy of the block (residual after projection)
    MatD proj;   // rank×k Gram–Schmidt coefficients of one pass
    MatD coeff;  // rank×k accumulated coefficients over both passes
  };

  double add_block(const MatD& block);

  /// Seed path: returns the squared norm of v's component orthogonal to the
  /// first `basis_rank` basis directions (the basis size before the
  /// enclosing add_columns call started).
  double add_column(std::vector<double> v, index basis_rank);

  const double* basis_row(index l) const {
    return basis_t_.data() + static_cast<std::size_t>(l * n_);
  }

  index n_;
  double drop_tol_;
  CompressorMode mode_;
  index m_ = 0;     // columns absorbed
  index rank_ = 0;  // basis directions kept
  // Basis stored TRANSPOSED: row l (contiguous, length n) is the l-th
  // orthonormal direction, so appending a direction appends n values and
  // the GEMM projections read it without materializing a transpose.
  std::vector<double> basis_t_;
  std::vector<std::vector<double>> r_cols_;  // R columns (length = rank at insertion)
  Workspace ws_;
};

}  // namespace pmtbr::mor
