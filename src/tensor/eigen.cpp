#include "src/tensor/eigen.hpp"

#include "src/tensor/matrix_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace compso::tensor {
namespace {

/// Floor applied to the Frobenius norm before scaling the Jacobi
/// convergence tolerance: an (effectively) all-zero matrix must terminate
/// on the first off-diagonal check instead of producing a zero threshold
/// that no residual can ever satisfy.
constexpr double kFrobeniusNormFloor = 1e-300;

/// Off-diagonal entries at or below this magnitude are treated as
/// already annihilated. At this scale the rotation angle computation
/// divides by a subnormal and produces garbage; skipping is exact for
/// any representable accumulation.
constexpr double kNegligibleOffDiagonal = 1e-300;

/// Textbook cap on implicit QL iterations per eigenvalue; hitting it
/// reports `converged = false` instead of looping on a stuck block.
constexpr int kMaxQlIterations = 30;

/// One Givens rotation of the QL bulge chase: eigenvector rows `row` and
/// `row + 1` of the transposed accumulator become (c a - s b, s a + c b).
struct GivensRotation {
  double c;
  double s;
  std::size_t row;
};

/// Rotates `width` columns of the row pair (qi, qi1). Separate multiplies
/// and adds (this file builds with -ffp-contract=off), so every element
/// sees the same rounding as the scalar QL update it replaces.
[[gnu::always_inline]] inline void rotate_row_pair(double* __restrict qi,
                                                   double* __restrict qi1,
                                                   double c, double s,
                                                   std::size_t width) {
  for (std::size_t k = 0; k < width; ++k) {
    const double a = qi[k];
    const double b = qi1[k];
    qi1[k] = s * a + c * b;
    qi[k] = c * a - s * b;
  }
}

/// Applies every logged rotation, in recorded order, to columns
/// [k0, k0 + width) of the n x n transposed accumulator.
[[gnu::always_inline]] inline void rotate_panel(const GivensRotation* log,
                                                std::size_t count, double* vt,
                                                std::size_t n, std::size_t k0,
                                                std::size_t width) {
  for (std::size_t t = 0; t < count; ++t) {
    double* qi = vt + log[t].row * n + k0;
    rotate_row_pair(qi, qi + n, log[t].c, log[t].s, width);
  }
}

/// Panel width in doubles, the same for every ISA: a panel is 40 KB at
/// n = 160 (66 KB at n = 257), around L1 size, and one width means the
/// panel-tail logic the tests check is the one every host runs.
constexpr std::size_t kPanelWidth = 32;

/// Applies `count` logged rotations one column panel at a time: the panel
/// (n rows x kPanelWidth) stays in L1 while every rotation sweeps it.
/// Each element sees the rotations touching its row in the order the
/// chase issued them, so the result is bit-identical to rotating inside
/// the chase.
[[gnu::always_inline]] inline void rotate_panels(const GivensRotation* log,
                                                 std::size_t count, double* vt,
                                                 std::size_t n) {
  std::size_t k0 = 0;
  for (; k0 + kPanelWidth <= n; k0 += kPanelWidth) {
    rotate_panel(log, count, vt, n, k0, kPanelWidth);
  }
  if (k0 < n) rotate_panel(log, count, vt, n, k0, n - k0);
}

using RotationKernel = void (*)(const GivensRotation*, std::size_t, double*,
                                std::size_t);

// One body per ISA, like the gemm microkernels (DESIGN.md §11.1). No
// "fma" in any target list: the rotation must round twice. The AVX-512
// clone earns its place by measurement: at n = 160 / 256 it runs eigh
// 6-10% / 12-16% faster than the AVX2 clone (interleaved in one process
// on an AVX-512 Xeon VM).
void rotate_panels_sse2(const GivensRotation* log, std::size_t count,
                        double* vt, std::size_t n) {
  rotate_panels(log, count, vt, n);
}
[[gnu::target("avx2")]] void rotate_panels_avx2(const GivensRotation* log,
                                                std::size_t count, double* vt,
                                                std::size_t n) {
  rotate_panels(log, count, vt, n);
}
[[gnu::target("avx512f")]] void rotate_panels_avx512(
    const GivensRotation* log, std::size_t count, double* vt, std::size_t n) {
  rotate_panels(log, count, vt, n);
}

/// Picks the widest rotation kernel the host supports, once per process.
RotationKernel pick_rotation_kernel() {
  static const RotationKernel kernel = [] {
    if (__builtin_cpu_supports("avx512f")) return &rotate_panels_avx512;
    if (__builtin_cpu_supports("avx2")) return &rotate_panels_avx2;
    return &rotate_panels_sse2;
  }();
  return kernel;
}

/// The rotations a QL solve has issued but not yet applied to the
/// eigenvectors. Thread-local so concurrent eigh calls (one engine task
/// per factor) share nothing; capacity is bounded by the flush threshold.
class RotationLog {
 public:
  RotationLog(double* vt, std::size_t n)
      : log_(buffer()), vt_(vt), n_(n), limit_(4 * n) {
    log_.clear();
    log_.reserve(limit_);
  }
  RotationLog(const RotationLog&) = delete;
  RotationLog& operator=(const RotationLog&) = delete;

  void push(double c, double s, std::size_t row) {
    log_.push_back({c, s, row});
    if (log_.size() >= limit_) flush();
  }

  void flush() {
    if (log_.empty()) return;
    pick_rotation_kernel()(log_.data(), log_.size(), vt_, n_);
    log_.clear();
  }

 private:
  static std::vector<GivensRotation>& buffer() {
    thread_local std::vector<GivensRotation> log;
    return log;
  }

  std::vector<GivensRotation>& log_;
  double* vt_;
  std::size_t n_;
  std::size_t limit_;
};

/// col[k] -= f * x[k] + g * y[k]: the tred2 rank-2 update of one column.
void rank2_update(double* __restrict col, const double* __restrict x,
                  const double* __restrict y, double f, double g,
                  std::size_t len) {
  for (std::size_t k = 0; k < len; ++k) col[k] -= f * x[k] + g * y[k];
}

/// col[k] -= g * y[k]: one column of the Householder accumulation.
void scaled_subtract(double* __restrict col, const double* __restrict y,
                     double g, std::size_t len) {
  for (std::size_t k = 0; k < len; ++k) col[k] -= g * y[k];
}

/// Copies `m` into double storage and symmetrizes it (running-average
/// factors can drift slightly off symmetric).
std::vector<double> load_symmetric(const Tensor& m, std::size_t n) {
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n * n; ++i) a[i] = m.data()[i];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (a[i * n + j] + a[j * n + i]);
      a[i * n + j] = a[j * n + i] = avg;
    }
  }
  return a;
}

double frobenius(const std::vector<double>& a) {
  double fro = 0.0;
  for (double v : a) fro += v * v;
  return std::sqrt(fro);
}

double off_diagonal_mass(const std::vector<double>& a, std::size_t n) {
  double off = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) off += a[i * n + j] * a[i * n + j];
  }
  return std::sqrt(2.0 * off);
}

/// Sorts eigenpairs ascending (NaN last, so a poisoned input still gets
/// a strict weak order) and materializes the result. `q_transposed`
/// selects whether q holds eigenvectors in rows (the production solver)
/// or in columns (the reference kernel).
EigenDecomposition finalize(const std::vector<double>& values,
                            const std::vector<double>& q, std::size_t n,
                            bool q_transposed, bool converged,
                            int iterations) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (std::isnan(values[x])) return false;
    return std::isnan(values[y]) || values[x] < values[y];
  });

  EigenDecomposition out;
  out.converged = converged;
  out.sweeps_used = iterations;
  out.eigenvalues.resize(n);
  out.eigenvectors = Tensor({n, n});
  for (std::size_t col = 0; col < n; ++col) {
    const std::size_t src = order[col];
    out.eigenvalues[col] = static_cast<float>(values[src]);
    for (std::size_t rowi = 0; rowi < n; ++rowi) {
      const double v = q_transposed ? q[src * n + rowi] : q[rowi * n + src];
      out.eigenvectors.at(rowi, col) = static_cast<float>(v);
    }
  }
  return out;
}

void check_square(const Tensor& m) {
  if (m.rank() != 2 || m.rows() != m.cols()) {
    throw std::invalid_argument("eigh: expected square matrix");
  }
}

}  // namespace

UnsortedEigen eigh_unsorted(const Tensor& m) {
  check_square(m);
  const std::size_t n = m.rows();
  if (n == 0) return {};
  // V is stored column-major (vt[j * n + k] == V[k][j]), i.e. as its
  // transpose: every inner loop of both phases then walks a contiguous
  // row of vt, and row j of vt ends up holding eigenvector j.
  std::vector<double> vt = load_symmetric(m, n);
  bool finite = true;
  for (double x : vt) finite = finite && std::isfinite(x);
  const auto v = [&](std::size_t row, std::size_t col) -> double& {
    return vt[col * n + row];
  };
  std::vector<double> d(n), e(n);

  // --- Householder tridiagonalisation (tred2), lower triangle of V ---
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
      // Householder vector u = d / scale with u[i-1] shifted by g.
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
      // p = A u (lower triangle only), stored in e.
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
      // q = p / h - (u^T p / 2h^2) u, then the rank-2 update A -= u q^T + q u^T.
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
        rank2_update(colj + j, e.data() + j, d.data() + j, f, g, i - j);
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }
  // Accumulate the Householder transforms into V.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    const double* u = vt.data() + (i + 1) * n;  // column i+1: the vector.
    if (h != 0.0) {
      const std::size_t len = i + 1;
      for (std::size_t k = 0; k < len; ++k) d[k] = u[k] / h;
      // Four columns per pass: four independent dot-product chains, each
      // summing over k in ascending order exactly as a lone column would.
      std::size_t j = 0;
      for (; j + 4 <= len; j += 4) {
        double* c0 = vt.data() + j * n;
        double* c1 = c0 + n;
        double* c2 = c1 + n;
        double* c3 = c2 + n;
        double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
        for (std::size_t k = 0; k < len; ++k) {
          g0 += u[k] * c0[k];
          g1 += u[k] * c1[k];
          g2 += u[k] * c2[k];
          g3 += u[k] * c3[k];
        }
        scaled_subtract(c0, d.data(), g0, len);
        scaled_subtract(c1, d.data(), g1, len);
        scaled_subtract(c2, d.data(), g2, len);
        scaled_subtract(c3, d.data(), g3, len);
      }
      for (; j < len; ++j) {
        double* colj = vt.data() + j * n;
        double g = 0.0;
        for (std::size_t k = 0; k < len; ++k) g += u[k] * colj[k];
        scaled_subtract(colj, d.data(), g, len);
      }
    }
    for (std::size_t k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;

  // --- Implicit-shift QL on the tridiagonal (tql2) ---
  // d holds the diagonal, e[i] the subdiagonal entry below d[i].
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  double shift = 0.0;
  double tst1 = 0.0;
  int iterations = 0;
  bool capped = false;
  // The chase only reads d and e; its rotations of the eigenvectors are
  // logged and applied in L1-sized column panels (DESIGN.md §11.4).
  RotationLog rotations(vt.data(), n);
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    // Find the first negligible subdiagonal entry at or after l. Bounded
    // by n - 1 explicitly: e[n-1] == 0 stops the walk for finite input,
    // but a NaN tst1 fails every comparison.
    std::size_t mm = l;
    while (mm + 1 < n && !(std::fabs(e[mm]) <= eps * tst1)) ++mm;
    if (mm > l) {
      int iter = 0;
      do {
        if (iter == kMaxQlIterations) {
          capped = true;
          break;
        }
        ++iter;
        ++iterations;
        // Wilkinson-style implicit shift from the leading 2x2 block.
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
        // Chase the bulge from mm - 1 up to l with Givens rotations.
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
          rotations.push(c, s, i);
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += shift;
    e[l] = 0.0;
  }
  rotations.flush();

  return {std::move(d), std::move(vt), iterations, finite && !capped};
}

EigenDecomposition eigh(const Tensor& m) {
  const UnsortedEigen raw = eigh_unsorted(m);
  return finalize(raw.values, raw.vectors, raw.values.size(),
                  /*q_transposed=*/true, raw.converged, raw.iterations);
}

EigenDecomposition eigh_reference(const Tensor& m, int max_sweeps,
                                  double tol) {
  check_square(m);
  const std::size_t n = m.rows();
  std::vector<double> a = load_symmetric(m, n);
  std::vector<double> q(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) q[i * n + i] = 1.0;

  const double stop = tol * std::max(frobenius(a), kFrobeniusNormFloor);

  bool converged = false;
  int sweeps_used = 0;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_mass(a, n) <= stop) {
      converged = true;
      break;
    }
    ++sweeps_used;

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t r = p + 1; r < n; ++r) {
        const double apq = a[p * n + r];
        if (std::fabs(apq) <= kNegligibleOffDiagonal) continue;
        const double app = a[p * n + p];
        const double aqq = a[r * n + r];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Rotate rows/cols p and r of A.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k * n + p];
          const double akq = a[k * n + r];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + r] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p * n + k];
          const double aqk = a[r * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[r * n + k] = s * apk + c * aqk;
        }
        // Accumulate rotations into Q.
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = q[k * n + p];
          const double qkq = q[k * n + r];
          q[k * n + p] = c * qkp - s * qkq;
          q[k * n + r] = s * qkp + c * qkq;
        }
      }
    }
  }
  if (!converged) converged = off_diagonal_mass(a, n) <= stop;

  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a[i * n + i];
  return finalize(diag, q, n, /*q_transposed=*/false, converged, sweeps_used);
}

Tensor eigen_reconstruct(const EigenDecomposition& e) {
  const std::size_t n = e.eigenvalues.size();
  Tensor scaled({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      scaled.at(i, j) = e.eigenvectors.at(i, j) * e.eigenvalues[j];
    }
  }
  Tensor out;
  gemm_nt(scaled, e.eigenvectors, out);
  return out;
}

}  // namespace compso::tensor
