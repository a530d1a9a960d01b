#include "la/svd_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "la/ops.hpp"

namespace pmtbr::la::oracle {

namespace {

constexpr int kMaxSweeps = 60;

// One-sided Jacobi on a tall (m >= n) matrix g; v accumulates the right
// rotations. Returns the sweeps used.
int jacobi_onesided(MatD& g, MatD& v) {
  const index m = g.rows(), n = g.cols();
  const double eps = std::numeric_limits<double>::epsilon();
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (index p = 0; p < n - 1; ++p) {
      for (index q = p + 1; q < n; ++q) {
        double app = 0, aqq = 0, apq = 0;
        for (index i = 0; i < m; ++i) {
          const double gp = g(i, p), gq = g(i, q);
          app += gp * gp;
          aqq += gq * gq;
          apq += gp * gq;
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
        rotated = true;
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (index i = 0; i < m; ++i) {
          const double gp = g(i, p), gq = g(i, q);
          g(i, p) = c * gp - s * gq;
          g(i, q) = s * gp + c * gq;
        }
        for (index i = 0; i < n; ++i) {
          const double vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (!rotated) return sweep + 1;
  }
  return kMaxSweeps;
}

SvdResult svd_tall(const MatD& a, int* sweeps) {
  const index m = a.rows(), n = a.cols();
  MatD g = a;
  MatD v = MatD::identity(n);
  const int used = jacobi_onesided(g, v);
  if (sweeps) *sweeps = used;

  std::vector<double> s(static_cast<std::size_t>(n));
  for (index j = 0; j < n; ++j) {
    double nrm = 0;
    for (index i = 0; i < m; ++i) nrm += g(i, j) * g(i, j);
    s[static_cast<std::size_t>(j)] = std::sqrt(nrm);
  }
  std::vector<index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index{0});
  std::sort(order.begin(), order.end(), [&](index i, index j) {
    return s[static_cast<std::size_t>(i)] > s[static_cast<std::size_t>(j)];
  });

  SvdResult out;
  out.s.resize(static_cast<std::size_t>(n));
  out.u = MatD(m, n);
  out.v = MatD(n, n);
  for (index j = 0; j < n; ++j) {
    const index src = order[static_cast<std::size_t>(j)];
    const double sj = s[static_cast<std::size_t>(src)];
    out.s[static_cast<std::size_t>(j)] = sj;
    const double inv = sj > 0 ? 1.0 / sj : 0.0;
    for (index i = 0; i < m; ++i) out.u(i, j) = g(i, src) * inv;
    for (index i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  return out;
}

}  // namespace

SvdResult svd_reference(const MatD& a, int* sweeps) {
  if (a.rows() >= a.cols()) return svd_tall(a, sweeps);
  // Wide: factor A^T = U S V^T  =>  A = V S U^T.
  SvdResult t = svd_tall(transpose(a), sweeps);
  SvdResult out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.s = std::move(t.s);
  return out;
}

}  // namespace pmtbr::la::oracle
