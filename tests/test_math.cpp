// Blocked math engine (src/tensor/matrix_ops, DESIGN.md §11) against the
// retained naive references: property tests on awkward shapes, bitwise
// determinism of the pool-parallel path at several thread counts, NaN/Inf
// propagation through the kernels (no zero-skip), the tridiagonal-QL eigh
// against the Jacobi oracle and bit for bit against the scalar QL loops
// it vectorizes, non-convergence reporting, and the
// scratch-reuse helper. The parallel suites run under TSan via ci.sh's
// build-tsan config.

#include "src/common/thread_pool.hpp"
#include "src/tensor/eigen.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/rng.hpp"
#include "src/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace ct = compso::tensor;
namespace common = compso::common;

namespace {

ct::Tensor rand2(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  ct::Tensor t({rows, cols});
  ct::Rng rng(seed);
  rng.fill_uniform(t.span(), -1.0F, 1.0F);
  return t;
}

/// Blocked vs reference agree to accumulation tolerance (the FMA
/// microkernels round once per multiply-add, the references twice), with
/// slack proportional to the reduction length k.
void expect_close(const ct::Tensor& got, const ct::Tensor& want,
                  std::size_t k, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  const float tol = 1e-6F * static_cast<float>(k + 4);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float w = want[i];
    ASSERT_NEAR(got[i], w, tol * std::max(1.0F, std::fabs(w)))
        << what << " diverges at flat index " << i;
  }
}

void expect_bitwise(const ct::Tensor& got, const ct::Tensor& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " diverges at flat index " << i;
  }
}

// Shapes chosen to hit every edge of the blocked engine: below the
// small-op cutoff (routes to the reference), just above it, 1xN / Nx1
// (degenerate register tiles), non-multiples of MR/NR/MC/KC/NC, and
// sizes spanning several cache blocks.
const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
    kGemmShapes = {
        {1, 1, 1},    {1, 8, 1},      {5, 1, 9},      {3, 7, 5},
        {1, 300, 400}, {400, 300, 1}, {33, 65, 17},   {96, 96, 96},
        {97, 129, 65}, {128, 64, 256}, {130, 200, 110},
};

TEST(BlockedGemm, MatchesReferenceOnAwkwardShapes) {
  std::uint64_t seed = 100;
  for (const auto& [m, k, n] : kGemmShapes) {
    const auto a = rand2(m, k, seed++);
    const auto b = rand2(k, n, seed++);
    ct::Tensor got, want;
    ct::gemm(a, b, got);
    ct::gemm_reference(a, b, want);
    expect_close(got, want, k,
                 ("gemm " + std::to_string(m) + "x" + std::to_string(k) + "x" +
                  std::to_string(n))
                     .c_str());
  }
}

TEST(BlockedGemm, TnMatchesReferenceOnAwkwardShapes) {
  std::uint64_t seed = 200;
  for (const auto& [m, k, n] : kGemmShapes) {
    const auto a = rand2(k, m, seed++);  // stored transposed.
    const auto b = rand2(k, n, seed++);
    ct::Tensor got, want;
    ct::gemm_tn(a, b, got);
    ct::gemm_tn_reference(a, b, want);
    expect_close(got, want, k, "gemm_tn");
  }
}

TEST(BlockedGemm, NtMatchesReferenceOnAwkwardShapes) {
  std::uint64_t seed = 300;
  for (const auto& [m, k, n] : kGemmShapes) {
    const auto a = rand2(m, k, seed++);
    const auto b = rand2(n, k, seed++);  // stored transposed.
    ct::Tensor got, want;
    ct::gemm_nt(a, b, got);
    ct::gemm_nt_reference(a, b, want);
    expect_close(got, want, k, "gemm_nt");
  }
}

TEST(BlockedGemm, EmptyOperandsProduceZeroOutput) {
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {0, 5, 7}, {5, 0, 7}, {5, 7, 0}, {0, 0, 0}}) {
    const auto a = rand2(m, k, 7);
    const auto b = rand2(k, n, 8);
    ct::Tensor c;
    ct::gemm(a, b, c);
    EXPECT_EQ(c.rows(), m);
    EXPECT_EQ(c.cols(), n);
    for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0F);
  }
}

TEST(BlockedSyrk, MatchesReferenceIncludingBetaAccumulation) {
  std::uint64_t seed = 400;
  for (const auto& [n, d] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {4, 7}, {33, 97}, {150, 130}, {64, 200}}) {
    const auto a = rand2(n, d, seed++);
    // Fresh output.
    ct::Tensor got, want;
    ct::syrk_tn(a, 0.7F, 0.0F, got);
    ct::syrk_tn_reference(a, 0.7F, 0.0F, want);
    expect_close(got, want, n, "syrk_tn fresh");
    // Accumulating into identical prior state (beta != 0).
    ct::Tensor prior = rand2(d, d, seed);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i + 1; j < d; ++j) prior.at(j, i) = prior.at(i, j);
    }
    ct::Tensor got2 = prior, want2 = prior;
    ct::syrk_tn(a, 1.3F, 0.4F, got2);
    ct::syrk_tn_reference(a, 1.3F, 0.4F, want2);
    expect_close(got2, want2, n, "syrk_tn accumulate");
    // The mirrored output is exactly symmetric.
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got2.at(i, j)),
                  std::bit_cast<std::uint32_t>(got2.at(j, i)));
      }
    }
  }
}

// --- bitwise determinism of the pool-parallel path ---
//
// Each output row block keeps its serial accumulation order, so the
// blocked kernels must produce byte-identical results with no pool and
// with pools of any size (DESIGN.md §11). Shapes exceed both the
// small-op and the parallel-dispatch thresholds.

TEST(ParallelMath, GemmBitIdenticalAcrossThreadCounts) {
  const auto a = rand2(257, 193, 41);
  const auto b = rand2(193, 211, 42);
  ct::Tensor serial;
  ct::gemm(a, b, serial);
  for (std::size_t threads : {1UL, 2UL, 8UL}) {
    common::ThreadPool pool(threads);
    ct::MathPoolGuard guard(&pool);
    ct::Tensor parallel;
    ct::gemm(a, b, parallel);
    expect_bitwise(parallel, serial,
                   ("gemm @" + std::to_string(threads) + " threads").c_str());
  }
  EXPECT_EQ(ct::math_pool(), nullptr);  // guard restored the previous pool.
}

TEST(ParallelMath, AllKernelsBitIdenticalUnderSharedPool) {
  const auto a = rand2(230, 140, 51);    // (m x k) for gemm_nt, (n x d) syrk.
  const auto at = rand2(140, 230, 52);   // (k x m) for gemm_tn.
  const auto bt = rand2(140, 180, 54);   // (k x n) for gemm_tn.
  const auto bn = rand2(180, 140, 53);   // (n x k) for gemm_nt.
  ct::Tensor s_tn, s_nt, s_syrk;
  ct::gemm_tn(at, bt, s_tn);
  ct::gemm_nt(a, bn, s_nt);
  ct::syrk_tn(a, 0.5F, 0.0F, s_syrk);
  for (std::size_t threads : {2UL, 8UL}) {
    common::ThreadPool pool(threads);
    ct::MathPoolGuard guard(&pool);
    ct::Tensor p_tn, p_nt, p_syrk;
    ct::gemm_tn(at, bt, p_tn);
    ct::gemm_nt(a, bn, p_nt);
    ct::syrk_tn(a, 0.5F, 0.0F, p_syrk);
    expect_bitwise(p_tn, s_tn, "gemm_tn parallel");
    expect_bitwise(p_nt, s_nt, "gemm_nt parallel");
    expect_bitwise(p_syrk, s_syrk, "syrk_tn parallel");
  }
}

// --- non-finite propagation (the old zero-skip bug class) ---
//
// 0 * NaN must stay NaN: the optimizer's non-finite guards rely on
// poisoned inputs reaching the output even through zero multiplicands.

TEST(NonFinite, ZeroTimesNanPropagatesThroughSmallKernels) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ct::Tensor a({2, 3});  // all zeros.
  ct::Tensor b({3, 2});
  b.at(0, 0) = nan;
  ct::Tensor c;
  ct::gemm_reference(a, b, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 0)));
  ct::gemm(a, b, c);  // small shape routes to the reference.
  EXPECT_TRUE(std::isnan(c.at(0, 0)));

  ct::Tensor at({3, 2});  // zeros, for gemm_tn.
  ct::gemm_tn_reference(at, b, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));

  ct::Tensor bn({2, 3});
  bn.at(0, 1) = nan;
  ct::gemm_nt_reference(a, bn, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));

  ct::Tensor sa({4, 5});  // zeros with one NaN row entry.
  sa.at(0, 0) = nan;
  ct::Tensor sc;
  ct::syrk_tn_reference(sa, 1.0F, 0.0F, sc);
  EXPECT_TRUE(std::isnan(sc.at(0, 0)));
  // alpha == 0 must not bypass propagation either (0 * NaN).
  ct::syrk_tn_reference(sa, 0.0F, 0.0F, sc);
  EXPECT_TRUE(std::isnan(sc.at(0, 0)));
}

TEST(NonFinite, ZeroTimesNanPropagatesThroughBlockedKernels) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  ct::Tensor a({128, 128});  // all zeros -> blocked path (2^21 flops).
  ct::Tensor b({128, 128});
  b.at(77, 5) = nan;
  b.at(3, 100) = inf;
  ct::Tensor c;
  ct::gemm(a, b, c);
  for (std::size_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(std::isnan(c.at(i, 5))) << "row " << i;
    ASSERT_TRUE(std::isnan(c.at(i, 100))) << "row " << i;  // 0 * inf.
  }

  ct::Tensor sa({130, 128});  // zeros, blocked syrk path.
  sa.at(0, 64) = nan;
  ct::Tensor sc;
  ct::syrk_tn(sa, 1.0F, 0.0F, sc);
  EXPECT_TRUE(std::isnan(sc.at(64, 64)));
  EXPECT_TRUE(std::isnan(sc.at(0, 64)));
  EXPECT_TRUE(std::isnan(sc.at(64, 0)));  // mirrored triangle.
}

// --- tridiagonal-QL eigh vs the Jacobi oracle ---

ct::Tensor random_symmetric(std::size_t n, std::uint64_t seed) {
  ct::Tensor m = rand2(n, n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const float avg = 0.5F * (m.at(i, j) + m.at(j, i));
      m.at(i, j) = m.at(j, i) = avg;
    }
  }
  return m;
}

/// KFAC-style covariance X^T X / batch of `batch` samples with a trailing
/// all-ones bias column; rank-deficient (a zero eigenspace of dimension
/// n - batch) whenever batch < n.
ct::Tensor covariance(std::size_t n, std::size_t batch, std::uint64_t seed) {
  ct::Tensor x({batch, n});
  ct::Rng rng(seed);
  rng.fill_normal(x.span());
  for (std::size_t r = 0; r < batch; ++r) x.at(r, n - 1) = 1.0F;
  ct::Tensor m;
  ct::syrk_tn(x, 1.0F / static_cast<float>(batch), 0.0F, m);
  return m;
}

/// Q diag(values) Q^T with Q the oracle's eigenbasis of a random matrix,
/// so the spectrum is exactly `values` (repeats included).
ct::Tensor with_spectrum(const std::vector<float>& values,
                         std::uint64_t seed) {
  ct::EigenDecomposition e =
      ct::eigh_reference(random_symmetric(values.size(), seed));
  e.eigenvalues = values;
  return ct::eigen_reconstruct(e);
}

void expect_valid_decomposition(const ct::EigenDecomposition& e,
                                const ct::Tensor& m, const char* what) {
  const std::size_t n = m.rows();
  EXPECT_TRUE(e.converged) << what;
  ASSERT_EQ(e.eigenvalues.size(), n) << what;
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LE(e.eigenvalues[i - 1], e.eigenvalues[i]) << what;
  }
  // Reconstruction: Q diag(v) Q^T == M.
  const ct::Tensor rec = ct::eigen_reconstruct(e);
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(rec[i], m[i], 5e-4F) << what << " reconstruct " << i;
  }
  // Orthonormality: Q^T Q == I.
  ct::Tensor qtq;
  ct::gemm_tn_reference(e.eigenvectors, e.eigenvectors, qtq);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(qtq.at(i, j), i == j ? 1.0F : 0.0F, 1e-4F) << what;
    }
  }
}

/// eigh and the oracle both decompose `m` validly and agree on every
/// eigenvalue (eigenvectors may differ by sign or, inside a degenerate
/// eigenspace, by basis — the checks above are basis-free).
void expect_matches_oracle(const ct::Tensor& m, const std::string& what) {
  const auto got = ct::eigh(m);
  const auto ref = ct::eigh_reference(m);
  expect_valid_decomposition(got, m, (what + " eigh").c_str());
  expect_valid_decomposition(ref, m, (what + " reference").c_str());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_NEAR(got.eigenvalues[i], ref.eigenvalues[i], 1e-4F)
        << what << " eigenvalue " << i;
  }
}

TEST(Eigh, MatchesReferenceAcrossSizes) {
  for (std::size_t n : {1UL, 2UL, 5UL, 33UL, 129UL, 160UL, 161UL, 193UL,
                        257UL}) {
    expect_matches_oracle(random_symmetric(n, 900 + n),
                          "n=" + std::to_string(n));
  }
}

TEST(Eigh, MatchesReferenceOnRepeatedEigenvalues) {
  for (std::size_t n : {5UL, 32UL, 129UL}) {
    // Three clusters of exactly equal eigenvalues, one of them zero.
    std::vector<float> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<float>(i % 3) - 1.0F;
    }
    expect_matches_oracle(with_spectrum(values, 950 + n),
                          "repeated n=" + std::to_string(n));
  }
}

TEST(Eigh, MatchesReferenceOnRankDeficientCovariance) {
  // batch < n: the KFAC factors of a wide layer on a small batch.
  for (const auto& [n, batch] :
       {std::pair{32UL, 8UL}, std::pair{129UL, 64UL},
        std::pair{161UL, 100UL}}) {
    expect_matches_oracle(covariance(n, batch, 970 + n),
                          "covariance n=" + std::to_string(n) +
                              " batch=" + std::to_string(batch));
  }
}

TEST(Eigh, SmallClosedForms) {
  ct::Tensor one({1, 1});
  one.at(0, 0) = -2.5F;
  const auto e1 = ct::eigh(one);
  EXPECT_TRUE(e1.converged);
  EXPECT_EQ(e1.sweeps_used, 0);
  EXPECT_FLOAT_EQ(e1.eigenvalues[0], -2.5F);
  EXPECT_FLOAT_EQ(std::fabs(e1.eigenvectors.at(0, 0)), 1.0F);

  // [[2, 1], [1, 2]]: eigenvalues 1 and 3, eigenvectors (1, ∓1)/sqrt(2).
  ct::Tensor two({2, 2});
  two.at(0, 0) = two.at(1, 1) = 2.0F;
  two.at(0, 1) = two.at(1, 0) = 1.0F;
  const auto e2 = ct::eigh(two);
  EXPECT_TRUE(e2.converged);
  EXPECT_NEAR(e2.eigenvalues[0], 1.0F, 1e-6F);
  EXPECT_NEAR(e2.eigenvalues[1], 3.0F, 1e-6F);
  const float h = 1.0F / std::sqrt(2.0F);
  EXPECT_NEAR(std::fabs(e2.eigenvectors.at(0, 0)), h, 1e-6F);
  EXPECT_NEAR(e2.eigenvectors.at(0, 0), -e2.eigenvectors.at(1, 0), 1e-6F);
  EXPECT_NEAR(e2.eigenvectors.at(0, 1), e2.eigenvectors.at(1, 1), 1e-6F);
  expect_valid_decomposition(e2, two, "2x2");
}

TEST(Eigh, DegenerateInputsConverge) {
  // All-zero matrix: nothing to reduce, no QL iteration, identity basis.
  const ct::Tensor zero({8, 8});
  const auto z = ct::eigh(zero);
  EXPECT_TRUE(z.converged);
  EXPECT_EQ(z.sweeps_used, 0);
  expect_valid_decomposition(z, zero, "zero");
  for (float v : z.eigenvalues) EXPECT_EQ(v, 0.0F);
  // Already-diagonal matrix: exact eigenvalues without a QL iteration.
  ct::Tensor diag({5, 5});
  for (std::size_t i = 0; i < 5; ++i) {
    diag.at(i, i) = static_cast<float>(4 - i);
  }
  const auto d = ct::eigh(diag);
  EXPECT_TRUE(d.converged);
  EXPECT_EQ(d.sweeps_used, 0);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(d.eigenvalues[i], static_cast<float>(i));
  }
  expect_valid_decomposition(d, diag, "diagonal");
  // Empty matrix: an empty, converged decomposition.
  const auto empty = ct::eigh(ct::Tensor({0, 0}));
  EXPECT_TRUE(empty.converged);
  EXPECT_TRUE(empty.eigenvalues.empty());
}

TEST(Eigh, AlreadyTridiagonalMatchesReference) {
  // The 1-2-1 stencil: eigenvalues 2 - 2cos(k pi / (n + 1)).
  const std::size_t n = 40;
  ct::Tensor t({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    t.at(i, i) = 2.0F;
    if (i + 1 < n) t.at(i, i + 1) = t.at(i + 1, i) = -1.0F;
  }
  expect_matches_oracle(t, "tridiagonal");
  const auto e = ct::eigh(t);
  const double pi = std::acos(-1.0);
  for (std::size_t k = 0; k < n; ++k) {
    const double want =
        2.0 - 2.0 * std::cos(static_cast<double>(k + 1) * pi /
                             static_cast<double>(n + 1));
    EXPECT_NEAR(e.eigenvalues[k], want, 1e-5) << k;
  }
  EXPECT_LE(e.sweeps_used, 30 * static_cast<int>(n));
}

TEST(Eigh, NonFiniteInputReportsNonConvergence) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {nan, inf, -inf}) {
    for (std::size_t n : {1UL, 2UL, 7UL, 33UL}) {
      for (const std::size_t at : {0UL, n - 1}) {
        ct::Tensor m = random_symmetric(n, 990 + n);
        m.at(at, n - 1 - at) = bad;
        m.at(n - 1 - at, at) = bad;
        const auto e = ct::eigh(m);
        EXPECT_FALSE(e.converged) << "n=" << n << " bad=" << bad;
        ASSERT_EQ(e.eigenvalues.size(), n);
        EXPECT_EQ(e.eigenvectors.rows(), n);
        EXPECT_LE(e.sweeps_used, 30 * static_cast<int>(n));
      }
    }
  }
}

// --- eigh against the scalar QL loops it vectorizes ---

/// The unblocked solver eigh replaced: Householder tridiagonalisation
/// (tred2) and implicit-shift QL (tql2) on a transposed accumulator, with
/// every eigenvector rotation applied inside the bulge chase and every
/// Householder loop scalar. Test-only: eigh must reproduce it bit for bit.
ct::UnsortedEigen scalar_ql_oracle(const ct::Tensor& m) {
  const std::size_t n = m.rows();
  if (n == 0) return {};
  std::vector<double> vt(n * n);
  for (std::size_t i = 0; i < n * n; ++i) vt[i] = m.data()[i];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (vt[i * n + j] + vt[j * n + i]);
      vt[i * n + j] = vt[j * n + i] = avg;
    }
  }
  bool finite = true;
  for (double x : vt) finite = finite && std::isfinite(x);
  const auto v = [&](std::size_t row, std::size_t col) -> double& {
    return vt[col * n + row];
  };
  std::vector<double> d(n), e(n);
  int iterations = 0;
  bool capped = false;
  for (std::size_t j = 0; j < n; ++j) d[j] = v(n - 1, j);
  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        const double* colj = vt.data() + j * n;
        g = e[j] + colj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += colj[k] * d[k];
          e[k] += colj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        double* colj = vt.data() + j * n;
        for (std::size_t k = j; k < i; ++k) colj[k] -= f * e[k] + g * d[k];
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    const double* u = vt.data() + (i + 1) * n;
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* colj = vt.data() + j * n;
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += u[k] * colj[k];
        for (std::size_t k = 0; k <= i; ++k) colj[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;

  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  double shift = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t mm = l;
    while (mm + 1 < n && !(std::fabs(e[mm]) <= eps * tst1)) ++mm;
    if (mm > l) {
      int iter = 0;
      do {
        if (iter == 30) {
          capped = true;
          break;
        }
        ++iter;
        ++iterations;
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        shift += h;
        p = d[mm];
        double c = 1.0, c2 = 1.0, c3 = 1.0;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t i = mm; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          double* qi = vt.data() + i * n;
          double* qi1 = vt.data() + (i + 1) * n;
          for (std::size_t k = 0; k < n; ++k) {
            const double a = qi[k];
            const double b = qi1[k];
            qi1[k] = s * a + c * b;
            qi[k] = c * a - s * b;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += shift;
    e[l] = 0.0;
  }

  return {std::move(d), std::move(vt), iterations, finite && !capped};
}

/// The oracle's eigenpairs sorted ascending (NaN last) and rounded to
/// float, as eigh returns them.
ct::EigenDecomposition sorted(const ct::UnsortedEigen& raw) {
  const std::size_t n = raw.values.size();
  const std::vector<double>& d = raw.values;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (std::isnan(d[x])) return false;
    return std::isnan(d[y]) || d[x] < d[y];
  });
  ct::EigenDecomposition out;
  out.converged = raw.converged;
  out.sweeps_used = raw.iterations;
  out.eigenvalues.resize(n);
  out.eigenvectors = ct::Tensor({n, n});
  for (std::size_t col = 0; col < n; ++col) {
    out.eigenvalues[col] = static_cast<float>(d[order[col]]);
    for (std::size_t row = 0; row < n; ++row) {
      out.eigenvectors.at(row, col) =
          static_cast<float>(raw.vectors[order[col] * n + row]);
    }
  }
  return out;
}

/// Same bits, except that any NaN matches any NaN: which operand's NaN
/// an IEEE multiply or add propagates (and so its sign) is up to the
/// compiler's operand order, in the oracle as much as in eigh.
template <typename T>
void expect_same_bits(const std::vector<T>& got, const std::vector<T>& want,
                      const std::string& what) {
  using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t,
                                  std::uint32_t>;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same =
        std::bit_cast<Bits>(got[i]) == std::bit_cast<Bits>(want[i]) ||
        (std::isnan(got[i]) && std::isnan(want[i]));
    ASSERT_TRUE(same) << what << " [" << i << "]: " << got[i] << " vs "
                      << want[i];
  }
}

/// eigh agrees with the oracle bit for bit twice over: in double
/// precision before the sort (where a reordered sum or a fused
/// multiply-add shows; rounding to float would hide most of them) and in
/// the float decomposition it returns.
void expect_bit_identical_to_oracle(const ct::Tensor& m,
                                    const std::string& what) {
  const ct::UnsortedEigen raw = ct::eigh_unsorted(m);
  const ct::UnsortedEigen want = scalar_ql_oracle(m);
  EXPECT_EQ(raw.iterations, want.iterations) << what;
  EXPECT_EQ(raw.converged, want.converged) << what;
  expect_same_bits(raw.values, want.values, what + " double values");
  expect_same_bits(raw.vectors, want.vectors, what + " double vectors");

  const ct::EigenDecomposition got = ct::eigh(m);
  const ct::EigenDecomposition ref = sorted(want);
  EXPECT_EQ(got.sweeps_used, ref.sweeps_used) << what;
  EXPECT_EQ(got.converged, ref.converged) << what;
  expect_same_bits(got.eigenvalues, ref.eigenvalues, what + " eigenvalues");
  const auto flat = [](const ct::Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.size());
  };
  expect_same_bits(flat(got.eigenvectors), flat(ref.eigenvectors),
                   what + " eigenvectors");
}

TEST(Eigh, BitIdenticalToScalarQl) {
  // Sizes around the 16- and 32-double column panels (panel tails) and
  // large enough that the 4n-entry rotation log flushes mid-chase.
  for (std::size_t n : {1UL, 2UL, 3UL, 15UL, 16UL, 17UL, 31UL, 32UL, 33UL,
                        64UL, 129UL, 160UL, 161UL, 193UL, 257UL}) {
    const std::string at = " n=" + std::to_string(n);
    expect_bit_identical_to_oracle(random_symmetric(n, 1100 + n),
                                   "random" + at);
    expect_bit_identical_to_oracle(covariance(n, n + 8, 1200 + n),
                                   "covariance" + at);
  }
  for (std::size_t n : {5UL, 32UL, 129UL}) {
    std::vector<float> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<float>(i % 3) - 1.0F;
    }
    expect_bit_identical_to_oracle(with_spectrum(values, 950 + n),
                                   "repeated n=" + std::to_string(n));
  }
  for (const auto& [n, batch] :
       {std::pair{32UL, 8UL}, std::pair{129UL, 64UL},
        std::pair{161UL, 100UL}}) {
    expect_bit_identical_to_oracle(covariance(n, batch, 970 + n),
                                   "rank-deficient n=" + std::to_string(n));
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {nan, inf, -inf}) {
    for (std::size_t n : {1UL, 2UL, 7UL, 33UL, 161UL}) {
      for (const std::size_t at : {0UL, n - 1}) {
        ct::Tensor m = random_symmetric(n, 990 + n);
        m.at(at, n - 1 - at) = bad;
        m.at(n - 1 - at, at) = bad;
        expect_bit_identical_to_oracle(
            m, "bad=" + std::to_string(bad) + " n=" + std::to_string(n) +
                   " at=" + std::to_string(at));
      }
    }
  }
}

// --- the Jacobi oracle's sweep budget ---

TEST(EighReference, ReportsNonConvergence) {
  const ct::Tensor m = random_symmetric(16, 77);
  // Zero sweeps on a matrix with off-diagonal mass: no work done.
  const auto none = ct::eigh_reference(m, /*max_sweeps=*/0);
  EXPECT_FALSE(none.converged);
  EXPECT_EQ(none.sweeps_used, 0);
  // An unreachable tolerance exhausts every sweep.
  const auto hopeless = ct::eigh_reference(m, /*max_sweeps=*/1, /*tol=*/0.0);
  EXPECT_FALSE(hopeless.converged);
  EXPECT_EQ(hopeless.sweeps_used, 1);
  // The default budget converges and says so.
  const auto ok = ct::eigh_reference(m);
  EXPECT_TRUE(ok.converged);
  EXPECT_GT(ok.sweeps_used, 0);
}

TEST(EighReference, DegenerateInputsConverge) {
  // All-zero matrix: the Frobenius-norm floor must yield a satisfiable
  // stopping threshold on the first check.
  const ct::Tensor zero({8, 8});
  const auto z = ct::eigh_reference(zero, /*max_sweeps=*/0);
  EXPECT_TRUE(z.converged);
  EXPECT_EQ(z.sweeps_used, 0);
  // Already-diagonal matrix: converges without spending a sweep.
  ct::Tensor diag({5, 5});
  for (std::size_t i = 0; i < 5; ++i) diag.at(i, i) = static_cast<float>(i);
  const auto d = ct::eigh_reference(diag);
  EXPECT_TRUE(d.converged);
  EXPECT_EQ(d.sweeps_used, 0);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(d.eigenvalues[i], static_cast<float>(i));
  }
}

// --- scratch-reuse helper ---

TEST(EnsureShape2, ReusesAllocationWhenShapeUnchanged) {
  ct::Tensor t({4, 5});
  const float* before = t.data();
  ct::ensure_shape2(t, 4, 5);
  EXPECT_EQ(t.data(), before);  // no reallocation.
  ct::ensure_shape2(t, 3, 2);
  EXPECT_EQ(t.rows(), 3U);
  EXPECT_EQ(t.cols(), 2U);
}

}  // namespace
