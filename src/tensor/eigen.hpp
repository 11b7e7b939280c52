#pragma once
// Symmetric eigendecomposition — the kernel KFAC uses to invert its
// Kronecker factors (paper Eq. 2).
//
// The production `eigh` is the textbook two-phase solver in double
// precision: Householder tridiagonalisation (tred2) accumulating the
// orthogonal transform, then implicit-shift QL on the tridiagonal (tql2).
// The accumulator is stored transposed, so every Householder update and
// every QL rotation walks contiguous rows; the QL rotations are logged
// and applied to the eigenvectors in L1-resident column panels by a
// vectorized kernel with the scalar loop's exact rounding (DESIGN.md
// §11.4). It is a pure serial function of its input and uses no thread
// pool, so callers may run it inside engine tasks without breaking
// bit-exactness.
//
// `eigh_reference` is a two-pass cyclic Jacobi, kept as the correctness
// oracle for the property tests.

#include "src/tensor/tensor.hpp"

namespace compso::tensor {

/// Result of eigendecomposing a symmetric matrix M = Q diag(v) Q^T.
struct EigenDecomposition {
  Tensor eigenvectors;  ///< (n x n), column i is the i-th eigenvector.
  std::vector<float> eigenvalues;  ///< length n, ascending order.
  /// false: the iteration budget ran out (see the solver), or the input
  /// held NaN/Inf. Callers that cannot use an approximate basis must
  /// check it.
  bool converged = true;
  /// Iterations spent: implicit QL iterations (all eigenvalues together)
  /// for `eigh`, Jacobi sweeps for `eigh_reference`.
  int sweeps_used = 0;
};

/// eigh's double-precision result before the eigenpairs are sorted and
/// rounded to float: eigenvalue j in `values[j]`, eigenvector j in row j
/// of the row-major n x n `vectors`. `eigh` is exactly this plus the sort;
/// the tests compare it bit for bit.
struct UnsortedEigen {
  std::vector<double> values;
  std::vector<double> vectors;
  int iterations = 0;
  bool converged = true;
};

UnsortedEigen eigh_unsorted(const Tensor& m);

/// Householder tridiagonalisation + implicit-shift QL.
///
/// Each eigenvalue gets at most 30 QL iterations (the textbook limit);
/// hitting the cap, or non-finite input, reports `converged = false`. The
/// loops stay bounded for NaN/Inf input and never read out of range.
EigenDecomposition eigh(const Tensor& m);

/// Cyclic-by-rows Jacobi (separate row-rotation, column-rotation and Q
/// passes), kept as the correctness oracle.
///
/// `max_sweeps` bounds the work; off-diagonal mass below
/// `tol * frobenius_norm` terminates early. All sweeps spent with the
/// off-diagonal mass still above tolerance reports `converged = false`.
EigenDecomposition eigh_reference(const Tensor& m, int max_sweeps = 32,
                                  double tol = 1e-10);

/// Reconstructs Q diag(v) Q^T from a decomposition (testing / validation).
Tensor eigen_reconstruct(const EigenDecomposition& e);

}  // namespace compso::tensor
