#include "la/qr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "la/gemm_kernel.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::la {

namespace {

// Below this min(m, n) the compact-WY machinery costs more than it saves
// and the unblocked loop runs instead.
constexpr index kQrBlockMin = 48;

// Panel width for the blocked factorization. 32 columns keep the panel
// L1/L2-resident while the GEMM trailing update does the bulk of the flops.
constexpr index kQrPanel = 32;

// Row-sweep core of a Householder application to the rows×nc block at `a`
// (leading dimension lda): s = beta·(vᴴ·block) accumulated row by row, then
// block ← block − v·s. Row order makes every inner loop a contiguous SIMD
// pass across the columns (the matrices are row-major), and the i-ascending
// accumulation matches the old column-order dots bit for bit. Multiversioned
// like the GEMM macrokernel so the sweep runs at native vector width.
PMTBR_KERNEL_CLONES
static void reflector_sweep(index rows, index nc, index lda, double* a, const double* v,
                            double beta, double* s) {
  for (index j = 0; j < nc; ++j) s[j] = 0.0;
  for (index i = 0; i < rows; ++i) {
    const double vi = v[i];
    const double* row = a + i * lda;
    for (index j = 0; j < nc; ++j) s[j] += vi * row[j];
  }
  for (index j = 0; j < nc; ++j) s[j] *= beta;
  for (index i = 0; i < rows; ++i) {
    const double vi = v[i];
    double* row = a + i * lda;
    for (index j = 0; j < nc; ++j) row[j] -= vi * s[j];
  }
}

PMTBR_KERNEL_CLONES
static void reflector_sweep(index rows, index nc, index lda, cd* a, const cd* v, double beta,
                            cd* s) {
  for (index j = 0; j < nc; ++j) s[j] = cd{};
  for (index i = 0; i < rows; ++i) {
    const cd vi = std::conj(v[i]);
    const cd* row = a + i * lda;
    for (index j = 0; j < nc; ++j) s[j] += vi * row[j];
  }
  for (index j = 0; j < nc; ++j) s[j] *= beta;
  for (index i = 0; i < rows; ++i) {
    const cd vi = v[i];
    cd* row = a + i * lda;
    for (index j = 0; j < nc; ++j) row[j] -= vi * s[j];
  }
}

// Applies a Householder reflector stored in v (v[0..m-j)) to columns [col0, n)
// of the working matrix rows [j0, m). `scratch` must hold n - col0 entries.
template <typename T>
void apply_reflector(Matrix<T>& a, index j0, index col0, const std::vector<T>& v, double beta,
                     std::vector<T>& scratch) {
  const index nc = a.cols() - col0;
  if (nc <= 0) return;
  reflector_sweep(a.rows() - j0, nc, a.cols(), &a(j0, col0), v.data(), beta, scratch.data());
}

template <typename T>
QrResult<T> qr_impl(Matrix<T> a, bool pivot, double rel_tol, bool want_q = true) {
  PMTBR_TRACE_SCOPE("la.qr");
  const index m = a.rows(), n = a.cols();
  const index k = std::min(m, n);
  obs::counter_add(obs::Counter::kQrFactorizations);
  // Householder QR: ~2mnk flops for R plus the same again for thin Q.
  obs::counter_add(obs::Counter::kQrFlops,
                   static_cast<std::int64_t>((want_q ? 4.0 : 2.0) * static_cast<double>(m) *
                                             static_cast<double>(n) * static_cast<double>(k)));
  QrResult<T> out;
  out.perm.resize(static_cast<std::size_t>(n));
  std::iota(out.perm.begin(), out.perm.end(), index{0});

  std::vector<double> colnorm2(static_cast<std::size_t>(n), 0.0);
  if (pivot) {
    for (index j = 0; j < n; ++j) {
      double s = 0;
      for (index i = 0; i < m; ++i) s += std::norm(cd(a(i, j)));
      colnorm2[static_cast<std::size_t>(j)] = s;
    }
  }

  std::vector<std::vector<T>> reflectors;
  std::vector<double> betas;
  reflectors.reserve(static_cast<std::size_t>(k));
  std::vector<T> scratch(static_cast<std::size_t>(n));

  for (index j = 0; j < k; ++j) {
    if (pivot) {
      index p = j;
      double best = colnorm2[static_cast<std::size_t>(j)];
      for (index c = j + 1; c < n; ++c)
        if (colnorm2[static_cast<std::size_t>(c)] > best) {
          best = colnorm2[static_cast<std::size_t>(c)];
          p = c;
        }
      if (p != j) {
        for (index i = 0; i < m; ++i) std::swap(a(i, j), a(i, p));
        std::swap(colnorm2[static_cast<std::size_t>(j)], colnorm2[static_cast<std::size_t>(p)]);
        std::swap(out.perm[static_cast<std::size_t>(j)], out.perm[static_cast<std::size_t>(p)]);
      }
    }

    // Build the Householder vector for column j.
    std::vector<T> v(static_cast<std::size_t>(m - j));
    double xnorm = 0;
    for (index i = j; i < m; ++i) {
      v[static_cast<std::size_t>(i - j)] = a(i, j);
      xnorm += std::norm(cd(a(i, j)));
    }
    xnorm = std::sqrt(xnorm);
    double beta = 0.0;
    if (xnorm > 0) {
      T alpha = v[0];
      const double aabs = std::abs(cd(alpha));
      // phase = alpha/|alpha| (or 1 if alpha==0) so the pivot becomes real.
      T phase = aabs > 0 ? alpha * T{1.0 / aabs} : T{1};
      const T vhead = alpha + phase * T{xnorm};
      v[0] = vhead;
      double vnorm2 = std::norm(cd(vhead)) + xnorm * xnorm - aabs * aabs;
      if (vnorm2 > 0) {
        beta = 2.0 / vnorm2;
        apply_reflector(a, j, j, v, beta, scratch);
      }
    }
    reflectors.push_back(std::move(v));
    betas.push_back(beta);

    if (pivot) {
      for (index c = j + 1; c < n; ++c)
        colnorm2[static_cast<std::size_t>(c)] -= std::norm(cd(a(j, c)));
    }
  }

  out.r = Matrix<T>(k, n);
  for (index i = 0; i < k; ++i)
    for (index j = i; j < n; ++j) out.r(i, j) = a(i, j);

  // Accumulate thin Q by applying the reflectors to the first k columns of I.
  if (want_q) {
    Matrix<T> q(m, k);
    for (index j = 0; j < k; ++j) q(j, j) = T{1};
    for (index j = k - 1; j >= 0; --j) {
      if (betas[static_cast<std::size_t>(j)] == 0.0) continue;
      apply_reflector(q, j, 0, reflectors[static_cast<std::size_t>(j)],
                      betas[static_cast<std::size_t>(j)], scratch);
    }
    out.q = std::move(q);
  }

  if (pivot) {
    const double r00 = std::abs(cd(out.r(0, 0)));
    index r = 0;
    for (index i = 0; i < k; ++i)
      if (std::abs(cd(out.r(i, i))) > rel_tol * r00) ++r;
    out.rank = r;
  } else {
    out.rank = k;
  }
  return out;
}

// Blocked Householder QR with the compact-WY representation: each kQrPanel
// column panel is factored by the unblocked loop, its reflectors are
// aggregated into Q_panel = I − V·T·Vᴴ (the LAPACK larft recurrence), and
// the trailing matrix is updated with three GEMMs instead of jb rank-1
// sweeps:  C ← Q_panelᴴ·C = C − V·(Tᴴ·(Vᴴ·C)).  Thin Q is accumulated by
// applying the panels to I in reverse, again through GEMM.
//
// V is stored as a unit lower-trapezoidal m−j0 × jb matrix (explicit zeros
// above the unit "diagonal"), so the kernel's strided packing can read it
// plainly and V·X / Vᴴ·X need no triangular special-casing.
template <typename T>
QrResult<T> qr_blocked(Matrix<T> a) {
  PMTBR_TRACE_SCOPE("la.qr");
  const index m = a.rows(), n = a.cols();
  const index k = std::min(m, n);
  obs::counter_add(obs::Counter::kQrFactorizations);
  obs::counter_add(obs::Counter::kQrFlops,
                   static_cast<std::int64_t>(4.0 * static_cast<double>(m) *
                                             static_cast<double>(n) * static_cast<double>(k)));

  std::vector<Matrix<T>> panel_v;
  std::vector<Matrix<T>> panel_t;
  panel_v.reserve(static_cast<std::size_t>((k + kQrPanel - 1) / kQrPanel));
  panel_t.reserve(panel_v.capacity());

  for (index j0 = 0; j0 < k; j0 += kQrPanel) {
    const index jb = std::min<index>(kQrPanel, k - j0);
    const index mj = m - j0;
    obs::counter_add(obs::Counter::kQrBlockedPanels);

    // --- panel factorization: unblocked Householder on columns [j0, j0+jb)
    Matrix<T> v(mj, jb);
    std::vector<double> betas(static_cast<std::size_t>(jb), 0.0);
    std::vector<T> hv(static_cast<std::size_t>(mj));
    std::vector<T> pscratch(static_cast<std::size_t>(jb));
    for (index jj = 0; jj < jb; ++jj) {
      const index col = j0 + jj;
      double xnorm2 = 0;
      for (index i = col; i < m; ++i) xnorm2 += std::norm(cd(a(i, col)));
      const double xnorm = std::sqrt(xnorm2);
      if (xnorm > 0) {
        const T alpha = a(col, col);
        const double aabs = std::abs(cd(alpha));
        // phase = alpha/|alpha| (or 1 if alpha==0) so the pivot becomes real.
        const T phase = aabs > 0 ? alpha * T{1.0 / aabs} : T{1};
        const T vhead = alpha + phase * T{xnorm};
        const double vnorm2 = std::norm(cd(vhead)) + xnorm2 - aabs * aabs;
        if (vnorm2 > 0) {
          const double beta = 2.0 / vnorm2;
          betas[static_cast<std::size_t>(jj)] = beta;
          // Build the reflector contiguously (from the pre-application
          // column), apply it to the panel with the row sweep, then stash it
          // in the unit-lower-trapezoidal V for the WY update.
          hv[0] = vhead;
          for (index i = col + 1; i < m; ++i) hv[static_cast<std::size_t>(i - col)] = a(i, col);
          reflector_sweep(m - col, j0 + jb - col, n, &a(col, col), hv.data(), beta,
                          pscratch.data());
          for (index i = col; i < m; ++i) v(i - j0, jj) = hv[static_cast<std::size_t>(i - col)];
        }
      }
    }

    // --- T factor (larft forward/columnwise recurrence):
    //     T(jj,jj) = beta_jj;  T(0:jj, jj) = −beta_jj · T(0:jj,0:jj) · (Vᴴ v_jj)
    Matrix<T> t(jb, jb);
    for (index jj = 0; jj < jb; ++jj) {
      const double beta = betas[static_cast<std::size_t>(jj)];
      t(jj, jj) = T{beta};
      if (beta == 0.0 || jj == 0) continue;
      std::vector<T> w(static_cast<std::size_t>(jj), T{});
      for (index c = 0; c < jj; ++c) {
        T s{};
        for (index i = jj; i < mj; ++i) {  // v_jj is zero above row jj
          if constexpr (std::is_same_v<T, cd>) {
            s += std::conj(v(i, c)) * v(i, jj);
          } else {
            s += v(i, c) * v(i, jj);
          }
        }
        w[static_cast<std::size_t>(c)] = s;
      }
      for (index r = 0; r < jj; ++r) {
        T s{};
        for (index c = r; c < jj; ++c) s += t(r, c) * w[static_cast<std::size_t>(c)];
        t(r, jj) = T{-beta} * s;
      }
    }

    // --- trailing update: C(j0:m, j0+jb:n) ← C − V·(Tᴴ·(Vᴴ·C))
    const index ntrail = n - (j0 + jb);
    if (ntrail > 0) {
      Matrix<T> w(jb, ntrail);
      detail::gemm<T, true>(jb, ntrail, mj, v.data(), 1, jb, &a(j0, j0 + jb), n, 1, w.data(),
                            ntrail, detail::GemmAcc::kSet);
      Matrix<T> w2(jb, ntrail);
      for (index r = 0; r < jb; ++r) {
        T* w2r = w2.row_ptr(r);
        for (index c = 0; c <= r; ++c) {  // Tᴴ is lower triangular
          T tc;
          if constexpr (std::is_same_v<T, cd>) {
            tc = std::conj(t(c, r));
          } else {
            tc = t(c, r);
          }
          const T* wc = w.row_ptr(c);
          for (index j = 0; j < ntrail; ++j) w2r[j] += tc * wc[j];
        }
      }
      detail::gemm<T, false>(mj, ntrail, jb, v.data(), jb, 1, w2.data(), ntrail, 1,
                             &a(j0, j0 + jb), n, detail::GemmAcc::kSub);
    }

    panel_v.push_back(std::move(v));
    panel_t.push_back(std::move(t));
  }

  QrResult<T> out;
  out.perm.resize(static_cast<std::size_t>(n));
  std::iota(out.perm.begin(), out.perm.end(), index{0});
  out.r = Matrix<T>(k, n);
  for (index i = 0; i < k; ++i)
    for (index j = i; j < n; ++j) out.r(i, j) = a(i, j);

  // Thin Q: apply the panels to the first k columns of I in reverse order,
  // q ← Q_panel·q = q − V·(T·(Vᴴ·q)) restricted to rows [j0, m).
  Matrix<T> q(m, k);
  for (index j = 0; j < k; ++j) q(j, j) = T{1};
  for (index p = static_cast<index>(panel_v.size()) - 1; p >= 0; --p) {
    const Matrix<T>& v = panel_v[static_cast<std::size_t>(p)];
    const Matrix<T>& t = panel_t[static_cast<std::size_t>(p)];
    const index j0 = p * kQrPanel;
    const index jb = v.cols();
    const index mj = m - j0;
    Matrix<T> w(jb, k);
    detail::gemm<T, true>(jb, k, mj, v.data(), 1, jb, &q(j0, 0), k, 1, w.data(), k,
                          detail::GemmAcc::kSet);
    Matrix<T> w2(jb, k);
    for (index r = 0; r < jb; ++r) {
      T* w2r = w2.row_ptr(r);
      for (index c = r; c < jb; ++c) {  // T is upper triangular
        const T tc = t(r, c);
        const T* wc = w.row_ptr(c);
        for (index j = 0; j < k; ++j) w2r[j] += tc * wc[j];
      }
    }
    detail::gemm<T, false>(mj, k, jb, v.data(), jb, 1, w2.data(), k, 1, &q(j0, 0), k,
                           detail::GemmAcc::kSub);
  }
  out.q = std::move(q);
  out.rank = k;
  return out;
}

}  // namespace

template <typename T>
QrResult<T> qr(const Matrix<T>& a) {
  PMTBR_CHECK_FINITE(a, "qr input matrix");
  if (std::min(a.rows(), a.cols()) >= kQrBlockMin) return qr_blocked(a);
  return qr_impl(a, /*pivot=*/false, 0.0);
}

template <typename T>
QrResult<T> qr_reference(const Matrix<T>& a) {
  PMTBR_CHECK_FINITE(a, "qr input matrix");
  return qr_impl(a, /*pivot=*/false, 0.0);
}

template <typename T>
QrResult<T> qr_pivoted(const Matrix<T>& a, double rel_tol) {
  PMTBR_REQUIRE(rel_tol >= 0, "qr_pivoted tolerance must be nonnegative");
  PMTBR_CHECK_FINITE(a, "qr_pivoted input matrix");
  return qr_impl(a, /*pivot=*/true, rel_tol);
}

template <typename T>
QrResult<T> qr_pivoted_r(const Matrix<T>& a) {
  PMTBR_CHECK_FINITE(a, "qr_pivoted_r input matrix");
  return qr_impl(a, /*pivot=*/true, 0.0, /*want_q=*/false);
}

template <typename T>
Matrix<T> orth(const Matrix<T>& a, double rel_tol) {
  auto f = qr_pivoted(a, rel_tol);
  return f.q.columns(0, std::max<index>(f.rank, 1));
}

template QrResult<double> qr(const Matrix<double>&);
template QrResult<cd> qr(const Matrix<cd>&);
template QrResult<double> qr_reference(const Matrix<double>&);
template QrResult<cd> qr_reference(const Matrix<cd>&);
template QrResult<double> qr_pivoted(const Matrix<double>&, double);
template QrResult<cd> qr_pivoted(const Matrix<cd>&, double);
template QrResult<double> qr_pivoted_r(const Matrix<double>&);
template QrResult<cd> qr_pivoted_r(const Matrix<cd>&);
template Matrix<double> orth(const Matrix<double>&, double);
template Matrix<cd> orth(const Matrix<cd>&, double);

}  // namespace pmtbr::la
