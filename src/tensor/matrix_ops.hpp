#pragma once
// Dense matrix kernels used by the NN substrate and the KFAC optimizer.
//
// The production kernels (gemm / gemm_tn / gemm_nt / syrk_tn) are lowered
// onto one cache-blocked, packed-panel microkernel (DESIGN.md §11): A and
// B tiles are copied into contiguous panels, and an MR x NR tile of C
// stays in vector registers while an intrinsics microkernel accumulates
// it over the K panel. Output row blocks can additionally run in parallel
// on a shared ThreadPool (set_math_pool) via the deterministic static
// partitioner — every output element keeps its serial accumulation order
// (k ascending, single accumulator), so results are bit-identical at any
// thread count.
//
// The original naive kernels are retained as *_reference oracles: the
// property tests and the math micro-benchmark compare the blocked engine
// against them, to accumulation tolerance where the microkernel fuses
// its multiply-adds.

#include "src/tensor/tensor.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace compso::common {
class ThreadPool;
}

namespace compso::tensor {

/// Attaches (or detaches, with nullptr) the pool the blocked kernels use
/// to parallelize output-row blocks. The pool is shared with whatever
/// else the caller runs (typically the CompressionEngine's pool) — the
/// kernels never spawn threads of their own, and calls that already run
/// on a pool worker execute inline, so layer-level parallelism above is
/// never oversubscribed by gemm-level parallelism below.
void set_math_pool(common::ThreadPool* pool) noexcept;
common::ThreadPool* math_pool() noexcept;

/// RAII helper for benches/tests: attaches a pool, restores the previous
/// one on destruction.
class MathPoolGuard {
 public:
  explicit MathPoolGuard(common::ThreadPool* pool) noexcept
      : prev_(math_pool()) {
    set_math_pool(pool);
  }
  ~MathPoolGuard() { set_math_pool(prev_); }
  MathPoolGuard(const MathPoolGuard&) = delete;
  MathPoolGuard& operator=(const MathPoolGuard&) = delete;

 private:
  common::ThreadPool* prev_;
};

/// C = A * B.  A is (m x k), B is (k x n), C is (m x n).
void gemm(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A^T * B.  A is (k x m), B is (k x n), C is (m x n).
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A * B^T.  A is (m x k), B is (n x k), C is (m x n).
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// C = alpha * A^T A + beta * C, for A of shape (n x d): the covariance
/// accumulation at the heart of KFAC factor computation (Eq. 1). Only the
/// upper-triangle blocks are computed; the result is mirrored.
void syrk_tn(const Tensor& a, float alpha, float beta, Tensor& c);

/// Naive single-thread reference kernels (the pre-blocking loops), kept
/// as correctness oracles. NOTE: like the blocked kernels, these do NOT
/// skip zero multiplicands — 0 * NaN must stay NaN so non-finite values
/// propagate into the output and the optimizer guards can fire.
void gemm_reference(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_tn_reference(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_nt_reference(const Tensor& a, const Tensor& b, Tensor& c);
void syrk_tn_reference(const Tensor& a, float alpha, float beta, Tensor& c);

/// Test seam, like eigh_unsorted: the names of the compiled microkernel
/// variants this host can run, widest first ("avx512", "avx2", "sse2").
/// The production kernels use the first.
std::vector<std::string> gemm_kernel_variants();

/// Test seam: while alive, gemm / gemm_tn / gemm_nt / syrk_tn called on
/// this thread run the named variant through the blocked driver, even
/// below the small-op cutoff, so every variant can be checked on one
/// host. Throws std::invalid_argument for a name gemm_kernel_variants()
/// does not list.
class GemmKernelOverride {
 public:
  explicit GemmKernelOverride(std::string_view variant);
  ~GemmKernelOverride();
  GemmKernelOverride(const GemmKernelOverride&) = delete;
  GemmKernelOverride& operator=(const GemmKernelOverride&) = delete;

 private:
  const void* prev_;
};

/// Returns A * B (allocating).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Returns A^T (allocating).
Tensor transpose(const Tensor& a);

/// y = A x for A (m x n), x (n), y (m).
void gemv(const Tensor& a, std::span<const float> x, std::span<float> y);

/// Adds `value` to the diagonal of square matrix A (Tikhonov damping).
void add_diagonal(Tensor& a, float value);

/// Reshapes `t` to (rows x cols), reallocating only when the shape
/// actually differs — scratch-reuse helper for per-step workspaces.
void ensure_shape2(Tensor& t, std::size_t rows, std::size_t cols);

}  // namespace compso::tensor
