// The QR-preconditioned Jacobi SVD against the plain one-sided Jacobi
// oracle (tests/la/svd_oracle.hpp): singular values and leading left
// subspaces agree on tall, wide and graded matrices and on the compressor R
// factor of a PMTBR run, and the kernel converges on that R factor within a
// fixed sweep budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/generators.hpp"
#include "helpers.hpp"
#include "la/ops.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "la/svd_oracle.hpp"
#include "mor/pmtbr.hpp"
#include "util/obs/counters.hpp"

namespace pmtbr::la {
namespace {

// R factor of a 30×30 RC mesh (4 ports) sampled at 50 uniform points on
// 1e5–1e11 Hz: 400 realified columns compressed to a rank×400 R.
MatD mesh_r_factor() {
  circuit::RcMeshParams mp;
  mp.rows = 30;
  mp.cols = 30;
  mp.num_ports = 4;
  const auto sys = circuit::make_rc_mesh(mp);
  mor::PmtbrOptions opts;
  opts.bands = {mor::Band{1e5, 1e11}};
  opts.num_samples = 50;
  return mor::pmtbr_sample(sys, opts).compressor.r_factor();
}

// A = U·diag(σ)·Vᵀ with random orthonormal U, V and σ_j = 10^(−decades·j/(k−1)),
// k = min(m, n): a spectrum graded over `decades` orders of magnitude.
MatD graded(index m, index n, double decades, Rng& rng) {
  const index k = std::min(m, n);
  MatD us = qr(testing::random_matrix(m, k, rng)).q;
  const MatD v = qr(testing::random_matrix(n, k, rng)).q;
  for (index j = 0; j < k; ++j) {
    const double s = std::pow(10.0, -decades * static_cast<double>(j) / static_cast<double>(k - 1));
    for (index i = 0; i < m; ++i) us(i, j) *= s;
  }
  return matmul(us, transpose(v));
}

// Singular values within 1e-12·σ₁ of the oracle, and the leading `q`
// left singular subspaces at principal-angle cosines ≥ 1 − 1e-12.
void expect_agrees_with_oracle(const MatD& a, index q) {
  const SvdResult f = svd(a);
  const SvdResult ref = oracle::svd_reference(a);
  ASSERT_EQ(f.s.size(), ref.s.size());
  for (std::size_t i = 0; i < f.s.size(); ++i)
    EXPECT_NEAR(f.s[i], ref.s[i], 1e-12 * ref.s[0]) << "singular value " << i;
  const auto cosines = singular_values(matmul_at(f.u.columns(0, q), ref.u.columns(0, q)));
  ASSERT_EQ(static_cast<index>(cosines.size()), q);
  EXPECT_GE(cosines.back(), 1.0 - 1e-12);
  EXPECT_LT(testing::orthonormality_defect(f.u), 1e-12);
  EXPECT_LT(testing::orthonormality_defect(f.v), 1e-12);
}

TEST(SvdOracle, AgreesOnTall) {
  Rng rng(31);
  expect_agrees_with_oracle(testing::random_matrix(60, 25, rng), 10);
}

TEST(SvdOracle, AgreesOnWide) {
  Rng rng(32);
  expect_agrees_with_oracle(testing::random_matrix(25, 60, rng), 10);
}

TEST(SvdOracle, AgreesOnGraded) {
  Rng rng(33);
  expect_agrees_with_oracle(graded(50, 30, 12.0, rng), 8);
  expect_agrees_with_oracle(graded(30, 50, 12.0, rng), 8);
}

TEST(SvdOracle, AgreesOnMeshRFactor) {
  const MatD r = mesh_r_factor();
  ASSERT_LT(r.rows(), r.cols());
  expect_agrees_with_oracle(r, 40);
}

TEST(SvdKernel, MeshRFactorConvergesWithinFifteenSweeps) {
  const MatD r = mesh_r_factor();
  const auto before = obs::counter_value(obs::Counter::kSvdSweeps);
  const auto f = try_svd(r);
  const auto sweeps = obs::counter_value(obs::Counter::kSvdSweeps) - before;
  EXPECT_TRUE(f.is_ok()) << f.status().to_string();
  EXPECT_LE(sweeps, 15);
}

TEST(SvdKernel, ValueAndLeftPathsMatchFullSvd) {
  // The cheaper entry points run the same rotations: bit-identical values,
  // and svd_left's vectors equal svd's on a wide input.
  Rng rng(34);
  for (const auto& a : {testing::random_matrix(12, 30, rng), testing::random_matrix(30, 12, rng),
                        graded(20, 20, 8.0, rng)}) {
    const SvdResult left = svd_left(a);
    EXPECT_EQ(singular_values(a), left.s);
    EXPECT_TRUE(left.v.empty());
    EXPECT_EQ(left.u.rows(), a.rows());
    if (a.rows() < a.cols()) {
      const SvdResult full = svd(a);
      EXPECT_EQ(full.s, left.s);
      EXPECT_EQ(max_abs_diff(full.u, left.u), 0.0);
    }
  }
}

}  // namespace
}  // namespace pmtbr::la
