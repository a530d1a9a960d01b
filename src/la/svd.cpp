#include "la/svd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "la/gemm_kernel.hpp"
#include "la/ops.hpp"
#include "la/qr.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::la {

namespace {

constexpr int kMaxSweeps = 60;

// Gram entries (x·x, y·y, x·y) of two contiguous rows. Four independent
// lanes per sum let the loop vectorize without reassociating anything, so
// every ISA clone returns the same bits for the same input.
PMTBR_KERNEL_CLONES
static void row_gram(index n, const double* x, const double* y, double* xx, double* yy,
                     double* xy) {
  double a[4] = {0, 0, 0, 0}, b[4] = {0, 0, 0, 0}, c[4] = {0, 0, 0, 0};
  index i = 0;
  for (; i + 4 <= n; i += 4) {
    for (index l = 0; l < 4; ++l) {
      const double xi = x[i + l], yi = y[i + l];
      a[l] += xi * xi;
      b[l] += yi * yi;
      c[l] += xi * yi;
    }
  }
  for (index l = 0; i < n; ++i, ++l) {
    a[l] += x[i] * x[i];
    b[l] += y[i] * y[i];
    c[l] += x[i] * y[i];
  }
  *xx = (a[0] + a[1]) + (a[2] + a[3]);
  *yy = (b[0] + b[1]) + (b[2] + b[3]);
  *xy = (c[0] + c[1]) + (c[2] + c[3]);
}

// (x, y) ← (c·x − s·y, s·x + c·y) on two contiguous rows.
PMTBR_KERNEL_CLONES
static void row_rotate(index n, double* x, double* y, double c, double s) {
  for (index i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// Cyclic one-sided Jacobi on the ROWS of the square matrix t: rotates row
// pairs until every pair is orthogonal to working precision. `w`, when
// non-null, receives the same rotations (start it at I to accumulate Jᵀ).
// Returns false when the sweep budget runs out before a rotation-free sweep.
bool jacobi_rows(MatD& t, MatD* w) {
  const index k = t.rows();
  const double eps = std::numeric_limits<double>::epsilon();
  const auto row_flops = static_cast<std::int64_t>(6 * k);  // one Gram or one rotation

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    obs::counter_add(obs::Counter::kSvdSweeps);
    std::int64_t rotations = 0;
    for (index p = 0; p < k - 1; ++p) {
      double* tp = t.row_ptr(p);
      for (index q = p + 1; q < k; ++q) {
        double* tq = t.row_ptr(q);
        double app = 0, aqq = 0, apq = 0;
        row_gram(k, tp, tq, &app, &aqq, &apq);
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
        ++rotations;
        // Classic Jacobi rotation annihilating the off-diagonal Gram entry.
        const double tau = (aqq - app) / (2.0 * apq);
        const double tn = (tau >= 0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + tn * tn);
        const double s = c * tn;
        row_rotate(k, tp, tq, c, s);
        if (w) row_rotate(k, w->row_ptr(p), w->row_ptr(q), c, s);
      }
    }
    const std::int64_t pairs = static_cast<std::int64_t>(k) * (k - 1) / 2;
    obs::counter_add(obs::Counter::kSvdFlops,
                     row_flops * (pairs + rotations * (w ? 2 : 1)));
    if (rotations == 0) return true;
  }
  return false;
}

// Thin SVD of any shape, filling only the requested vectors.
//
// The tall orientation B (A, or Aᵀ when A is wide) is preconditioned by a
// column-pivoted Householder QR, B·P = Q·T (Drmač–Veselić), and Jacobi
// orthogonalizes the rows of the k×k triangle T: Jᵀ·T = Σ·U_Tᵀ. Hence
//   B = (Q·J) · Σ · (P·U_T)ᵀ,
// so B's right vectors P·U_T are the normalized rotated rows of T, free of
// any accumulation, and only B's left vectors need J and Q. A square input
// is taken as wide unless right vectors are wanted, so left vectors alone
// are always free.
SvdResult svd_impl(const MatD& a, bool want_u, bool want_v, bool* converged) {
  PMTBR_TRACE_SCOPE("la.svd");
  obs::counter_add(obs::Counter::kSvdCalls);
  const bool wide = a.rows() < a.cols() || (a.rows() == a.cols() && !want_v);
  const bool want_bl = wide ? want_v : want_u;  // needs Q·J
  const bool want_br = wide ? want_u : want_v;  // free
  const MatD b = wide ? transpose(a) : a;
  QrD f = want_bl ? qr_pivoted(b) : qr_pivoted_r(b);
  MatD& t = f.r;
  const index k = t.rows();
  MatD w;
  if (want_bl) w = MatD::identity(k);
  const bool ok = jacobi_rows(t, want_bl ? &w : nullptr);
  if (converged) *converged = ok;

  // Row norms are the singular values; sort them descending.
  std::vector<double> norms(static_cast<std::size_t>(k));
  for (index i = 0; i < k; ++i) {
    const double* ti = t.row_ptr(i);
    double nrm = 0;
    for (index j = 0; j < k; ++j) nrm += ti[j] * ti[j];
    norms[static_cast<std::size_t>(i)] = std::sqrt(nrm);
  }
  std::vector<index> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), index{0});
  std::stable_sort(order.begin(), order.end(), [&](index i, index j) {
    return norms[static_cast<std::size_t>(i)] > norms[static_cast<std::size_t>(j)];
  });

  SvdResult out;
  out.s.reserve(static_cast<std::size_t>(k));
  for (const index src : order) out.s.push_back(norms[static_cast<std::size_t>(src)]);

  MatD right, left;
  if (want_br) {
    // (P·U_T)(perm[j], l) = T_rot(src, j) / σ_l.
    right = MatD(k, k);
    for (index l = 0; l < k; ++l) {
      const index src = order[static_cast<std::size_t>(l)];
      const double sl = out.s[static_cast<std::size_t>(l)];
      const double inv = sl > 0 ? 1.0 / sl : 0.0;
      const double* ts = t.row_ptr(src);
      for (index j = 0; j < k; ++j) right(f.perm[static_cast<std::size_t>(j)], l) = ts[j] * inv;
    }
  }
  if (want_bl) {
    // Q·J with J's columns (rows of w) taken in sorted order.
    MatD ws(k, k);
    for (index l = 0; l < k; ++l) {
      const double* src = w.row_ptr(order[static_cast<std::size_t>(l)]);
      std::copy(src, src + k, ws.row_ptr(l));
    }
    left = MatD(f.q.rows(), k);
    detail::gemm<double, false>(f.q.rows(), k, k, f.q.data(), k, 1, ws.data(), 1, k, left.data(),
                                k, detail::GemmAcc::kSet);
  }
  out.u = wide ? std::move(right) : std::move(left);
  out.v = wide ? std::move(left) : std::move(right);
  return out;
}

}  // namespace

SvdResult svd(const MatD& a) {
  PMTBR_REQUIRE(!a.empty(), "svd of empty matrix");
  PMTBR_CHECK_FINITE(a, "svd input matrix");
  return svd_impl(a, true, true, nullptr);
}

util::Expected<SvdResult> try_svd(const MatD& a) {
  PMTBR_REQUIRE(!a.empty(), "svd of empty matrix");
  PMTBR_CHECK_FINITE(a, "svd input matrix");
  if (util::fault::should_fail(util::fault::Site::kSvdConverge))
    return util::Status(util::ErrorCode::kInjectedFault, "svd.converge fault injected");
  bool converged = false;
  SvdResult out = svd_impl(a, true, true, &converged);
  if (!converged)
    return util::Status(util::ErrorCode::kNoConvergence,
                        "one-sided Jacobi SVD exhausted its sweep budget");
  return out;
}

SvdResult svd_left(const MatD& a) {
  PMTBR_REQUIRE(!a.empty(), "svd of empty matrix");
  PMTBR_CHECK_FINITE(a, "svd_left input matrix");
  return svd_impl(a, true, false, nullptr);
}

std::vector<double> singular_values(const MatD& a) {
  PMTBR_REQUIRE(!a.empty(), "svd of empty matrix");
  PMTBR_CHECK_FINITE(a, "singular_values input matrix");
  return svd_impl(a, false, false, nullptr).s;
}

}  // namespace pmtbr::la
