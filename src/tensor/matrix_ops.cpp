#include "src/tensor/matrix_ops.hpp"

#include "src/common/thread_pool.hpp"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace compso::tensor {
namespace {

void check2(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(name) + ": expected rank-2 tensor");
  }
}

// The shared math pool (DESIGN.md §11). Plain pointer, set at wiring time
// (benches/tests) before any concurrent use; kernels re-read it per call.
std::atomic<common::ThreadPool*> g_math_pool{nullptr};

// ---------------------------------------------------------------------------
// Blocked packed-panel engine.
//
// Classic three-level blocking (jc -> pc -> ic) with packed panels:
//   NC: columns of B per outer block (B panel: KC x NC, L2-resident),
//   KC: depth of one packed panel pass,
//   MC: rows of C per parallel work unit (multiple of MR),
//   MR x NR: the register tile one microkernel invocation accumulates.
//
// Determinism: the pc loop is serial and ascending, and the microkernel
// loads each C element into a register, extends its accumulation chain
// with k ascending (one fused or unfused multiply-add per k), and stores
// it back. Every output element therefore sees one fixed operation
// sequence regardless of tile shape, blocking, or which thread computed
// its row block — results are bit-identical at any thread count. The
// microkernel is runtime-dispatched to the widest ISA the host offers
// (AVX-512+FMA, AVX2+FMA, baseline SSE2); the chosen variant is a pure
// function of the host CPU, so within a machine the dispatch is
// deterministic too. The FMA variants round once per multiply-add, so
// blocked results agree with the unfused *_reference oracles to
// accumulation tolerance, not bitwise (the property tests encode exactly
// that contract).
// ---------------------------------------------------------------------------

thread_local std::vector<float> t_apack;  ///< per-thread A panel scratch.
thread_local std::vector<float> t_bpack;  ///< caller-thread B panel scratch.

/// Operand layouts the packer understands. `trans == false` reads
/// element (i, p) at data[i * ld + p]; `trans == true` reads data[p * ld + i]
/// (i.e. the operand is stored transposed relative to its role).
struct Panel {
  const float* data;
  std::size_t ld;
  bool trans;
};

using MicroFn = void (*)(std::size_t kb, const float* ap, const float* bp,
                         float* c, std::size_t ldc);

/// One ISA variant of the engine: register-tile shape, blocking
/// parameters, and the full-tile microkernel.
struct KernelDesc {
  const char* name;
  std::size_t mr, nr;  ///< register tile.
  std::size_t mc, kc, nc;  ///< cache blocking (mc is a multiple of mr).
  MicroFn full;
};

// The microkernels hold the whole MR x NR tile of C in vector registers
// for the K panel: MR rows of NR / lanes accumulators, one broadcast of
// a[r] per row and k, and exactly one multiply-add per element and k, in
// k order. Row loops are fully unrolled so every accumulator is a named
// register, never a stack slot.

// AVX-512+FMA: 6x32 tile = 12 zmm accumulators.
[[gnu::target("avx512f,fma")]] void micro_avx512(std::size_t kb,
                                                 const float* ap,
                                                 const float* bp, float* c,
                                                 std::size_t ldc) {
  __m512 acc[6][2];
#pragma GCC unroll 6
  for (std::size_t r = 0; r < 6; ++r) {
    acc[r][0] = _mm512_loadu_ps(c + r * ldc);
    acc[r][1] = _mm512_loadu_ps(c + r * ldc + 16);
  }
  for (std::size_t p = 0; p < kb; ++p, ap += 6, bp += 32) {
    const __m512 b0 = _mm512_loadu_ps(bp);
    const __m512 b1 = _mm512_loadu_ps(bp + 16);
#pragma GCC unroll 6
    for (std::size_t r = 0; r < 6; ++r) {
      const __m512 a = _mm512_set1_ps(ap[r]);
      acc[r][0] = _mm512_fmadd_ps(a, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(a, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 6
  for (std::size_t r = 0; r < 6; ++r) {
    _mm512_storeu_ps(c + r * ldc, acc[r][0]);
    _mm512_storeu_ps(c + r * ldc + 16, acc[r][1]);
  }
}

// AVX2+FMA: 4x16 tile = 8 ymm accumulators.
[[gnu::target("avx2,fma")]] void micro_avx2(std::size_t kb, const float* ap,
                                            const float* bp, float* c,
                                            std::size_t ldc) {
  __m256 acc[4][2];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
    acc[r][0] = _mm256_loadu_ps(c + r * ldc);
    acc[r][1] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (std::size_t p = 0; p < kb; ++p, ap += 4, bp += 16) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const __m256 a = _mm256_set1_ps(ap[r]);
      acc[r][0] = _mm256_fmadd_ps(a, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(a, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

// Baseline (SSE2): 6x8 tile = 12 xmm accumulators. No FMA in the
// baseline ISA: a separate multiply then add, like the reference loops.
void micro_sse2(std::size_t kb, const float* ap, const float* bp, float* c,
                std::size_t ldc) {
  __m128 acc[6][2];
#pragma GCC unroll 6
  for (std::size_t r = 0; r < 6; ++r) {
    acc[r][0] = _mm_loadu_ps(c + r * ldc);
    acc[r][1] = _mm_loadu_ps(c + r * ldc + 4);
  }
  for (std::size_t p = 0; p < kb; ++p, ap += 6, bp += 8) {
    const __m128 b0 = _mm_loadu_ps(bp);
    const __m128 b1 = _mm_loadu_ps(bp + 4);
#pragma GCC unroll 6
    for (std::size_t r = 0; r < 6; ++r) {
      const __m128 a = _mm_set1_ps(ap[r]);
      acc[r][0] = _mm_add_ps(acc[r][0], _mm_mul_ps(a, b0));
      acc[r][1] = _mm_add_ps(acc[r][1], _mm_mul_ps(a, b1));
    }
  }
#pragma GCC unroll 6
  for (std::size_t r = 0; r < 6; ++r) {
    _mm_storeu_ps(c + r * ldc, acc[r][0]);
    _mm_storeu_ps(c + r * ldc + 4, acc[r][1]);
  }
}

// KC is sized so one packed B micropanel (KC x NR floats) stays ~half-L1.
constexpr KernelDesc kAvx512{"avx512", 6, 32, 96, 128, 512, micro_avx512};
constexpr KernelDesc kAvx2{"avx2", 4, 16, 96, 256, 256, micro_avx2};
constexpr KernelDesc kSse2{"sse2", 6, 8, 96, 256, 256, micro_sse2};
/// Floats in the largest register tile (the staging buffer's size).
constexpr std::size_t kMaxTile = std::max(
    {kAvx512.mr * kAvx512.nr, kAvx2.mr * kAvx2.nr, kSse2.mr * kSse2.nr});

/// The variants this host can run, widest first.
std::vector<const KernelDesc*> host_kernels() {
  std::vector<const KernelDesc*> out;
  const bool fma = __builtin_cpu_supports("fma");
  if (fma && __builtin_cpu_supports("avx512f")) out.push_back(&kAvx512);
  if (fma && __builtin_cpu_supports("avx2")) out.push_back(&kAvx2);
  out.push_back(&kSse2);
  return out;
}

/// Set by GemmKernelOverride: the variant this thread's calls must use.
thread_local const KernelDesc* t_forced_kernel = nullptr;

/// The forced variant if any, else the widest the host supports (picked
/// once per process).
const KernelDesc& pick_kernel() {
  if (t_forced_kernel != nullptr) return *t_forced_kernel;
  static const KernelDesc* const widest = host_kernels().front();
  return *widest;
}

/// Below this flop count the packing overhead dominates: use the naive
/// reference loops instead, unless a test forces a variant.
constexpr std::size_t kSmallGemmFlops = 1UL << 15;
/// Minimum per-call flop count before row blocks go to the pool.
constexpr std::size_t kParallelFlops = 1UL << 21;

bool use_reference(std::size_t m, std::size_t n, std::size_t k) {
  return t_forced_kernel == nullptr && m * n * k < kSmallGemmFlops;
}

/// Packs rows [i0, i1) x ks [p0, p1) of `src` into w-row micropanels
/// (element (i, p) of panel t at [t * w * kb + p * w + r]), scaled by
/// alpha (exact identity for alpha == 1) and zero-padded to w rows. The
/// loop order follows the layout so reads stay stride-1: along k for a
/// row-major operand, along the rows for a transposed one.
void pack_panel(const Panel& src, std::size_t w, std::size_t i0,
                std::size_t i1, std::size_t p0, std::size_t p1, float alpha,
                std::vector<float>& buf) {
  const std::size_t kb = p1 - p0;
  const std::size_t tiles = (i1 - i0 + w - 1) / w;
  buf.resize(std::max(buf.size(), tiles * w * kb));
  for (std::size_t t = 0; t < tiles; ++t) {
    float* dst = buf.data() + t * w * kb;
    const std::size_t ibase = i0 + t * w;
    const std::size_t rows = std::min(w, i1 - ibase);
    if (src.trans) {
      for (std::size_t p = 0; p < kb; ++p) {
        const float* s = src.data + (p0 + p) * src.ld + ibase;
        float* d = dst + p * w;
        for (std::size_t r = 0; r < rows; ++r) d[r] = alpha * s[r];
        for (std::size_t r = rows; r < w; ++r) d[r] = 0.0F;
      }
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        const float* s = src.data + (ibase + r) * src.ld + p0;
        for (std::size_t p = 0; p < kb; ++p) dst[p * w + r] = alpha * s[p];
      }
      for (std::size_t r = rows; r < w; ++r) {
        for (std::size_t p = 0; p < kb; ++p) dst[p * w + r] = 0.0F;
      }
    }
  }
}

/// Runs a tile the full kernel cannot write in place: a partial one
/// (mr x nr inside the MR x NR shape) or, in syrk mode, one crossing the
/// diagonal. The valid part of C is staged in a zero-padded full tile,
/// the full kernel runs on it, and only the valid elements are stored
/// back, minus those below the diagonal in syrk mode. The padding rows
/// and columns meet zeros from the packer, so every valid element sees
/// the same chain as in a full tile.
void run_staged(const KernelDesc& kd, std::size_t kb, const float* ap,
                const float* bp, float* c, std::size_t ldc, std::size_t mr,
                std::size_t nr, std::size_t gi, std::size_t gj,
                bool triangular) {
  alignas(64) float tile[kMaxTile] = {};
  for (std::size_t r = 0; r < mr; ++r) {
    std::copy_n(c + r * ldc, nr, tile + r * kd.nr);
  }
  kd.full(kb, ap, bp, tile, kd.nr);
  for (std::size_t r = 0; r < mr; ++r) {
    const std::size_t j0 = triangular && gi + r > gj ? gi + r - gj : 0;
    if (j0 < nr) {
      std::copy(tile + r * kd.nr + j0, tile + r * kd.nr + nr,
                c + r * ldc + j0);
    }
  }
}

struct BlockArgs {
  Panel a;
  const KernelDesc* kd;
  const float* bpack;  ///< packed B panel for [p0,p1) x [j0,j1).
  float* c;
  std::size_t ldc;
  std::size_t p0, p1, j0, j1;
  float alpha;
  bool triangular;  ///< syrk mode: skip stores below the diagonal.
};

/// Computes C rows [i0, i1) against the packed B panel: packs the A
/// block (per-thread scratch) and sweeps the microkernel grid.
void run_row_block(const BlockArgs& ba, std::size_t i0, std::size_t i1) {
  // syrk: the whole row block lies strictly below the diagonal band.
  if (ba.triangular && ba.j1 <= i0) return;
  const KernelDesc& kd = *ba.kd;
  pack_panel(ba.a, kd.mr, i0, i1, ba.p0, ba.p1, ba.alpha, t_apack);
  const std::size_t kb = ba.p1 - ba.p0;
  const std::size_t nb = ba.j1 - ba.j0;
  const std::size_t ntiles = (nb + kd.nr - 1) / kd.nr;
  for (std::size_t it = 0; it * kd.mr < i1 - i0; ++it) {
    const std::size_t gi = i0 + it * kd.mr;
    const std::size_t mr = std::min(kd.mr, i1 - gi);
    const float* ap = t_apack.data() + it * kd.mr * kb;
    for (std::size_t jt = 0; jt < ntiles; ++jt) {
      const std::size_t gj = ba.j0 + jt * kd.nr;
      const std::size_t nr = std::min(kd.nr, ba.j1 - gj);
      if (ba.triangular && gj + nr <= gi) continue;  // fully below diagonal.
      const float* bp = ba.bpack + jt * kd.nr * kb;
      float* ctile = ba.c + gi * ba.ldc + gj;
      if (mr == kd.mr && nr == kd.nr &&
          !(ba.triangular && gj < gi + kd.mr)) {
        kd.full(kb, ap, bp, ctile, ba.ldc);
      } else {
        run_staged(kd, kb, ap, bp, ctile, ba.ldc, mr, nr, gi, gj,
                   ba.triangular);
      }
    }
  }
}

/// Blocked driver: C(m x n) += alpha * A * B with the given operand
/// layouts. C must already hold its initial values (the accumulation
/// chain continues from them). `triangular` enables the syrk
/// upper-triangle specialization.
void gemm_driver(const Panel& a, const Panel& b, float* c, std::size_t m,
                 std::size_t n, std::size_t k, float alpha, bool triangular) {
  if (m == 0 || n == 0 || k == 0) return;
  const KernelDesc& kd = pick_kernel();
  common::ThreadPool* pool = g_math_pool.load(std::memory_order_acquire);
  const bool parallel = pool != nullptr &&
                        !common::ThreadPool::on_worker_thread() &&
                        m > kd.mc && m * n * k >= kParallelFlops;
  const std::size_t mblocks = (m + kd.mc - 1) / kd.mc;
  for (std::size_t jc = 0; jc < n; jc += kd.nc) {
    const std::size_t j1 = std::min(jc + kd.nc, n);
    for (std::size_t pc = 0; pc < k; pc += kd.kc) {
      const std::size_t p1 = std::min(pc + kd.kc, k);
      pack_panel(b, kd.nr, jc, j1, pc, p1, 1.0F, t_bpack);
      BlockArgs ba{a, &kd, t_bpack.data(), c, n, pc, p1, jc, j1, alpha,
                   triangular};
      auto ranges = [&ba, &kd, m](std::size_t b0, std::size_t b1) {
        for (std::size_t ib = b0; ib < b1; ++ib) {
          run_row_block(ba, ib * kd.mc, std::min(ib * kd.mc + kd.mc, m));
        }
      };
      if (parallel) {
        pool->parallel_for_static(mblocks, ranges);
      } else {
        ranges(0, mblocks);
      }
    }
  }
}

/// Copies the upper triangle of the square `c` into the lower one, in
/// square blocks so the strided column writes stay in cache.
void mirror_upper(Tensor& c) {
  constexpr std::size_t kBlock = 8;
  const std::size_t d = c.rows();
  float* m = c.data();
  for (std::size_t ib = 0; ib < d; ib += kBlock) {
    const std::size_t i1 = std::min(ib + kBlock, d);
    for (std::size_t jb = ib; jb < d; jb += kBlock) {
      const std::size_t j1 = std::min(jb + kBlock, d);
      for (std::size_t i = ib; i < i1; ++i) {
        for (std::size_t j = std::max(jb, i + 1); j < j1; ++j) {
          m[j * d + i] = m[i * d + j];
        }
      }
    }
  }
}

}  // namespace

void set_math_pool(common::ThreadPool* pool) noexcept {
  g_math_pool.store(pool, std::memory_order_release);
}

common::ThreadPool* math_pool() noexcept {
  return g_math_pool.load(std::memory_order_acquire);
}

std::vector<std::string> gemm_kernel_variants() {
  std::vector<std::string> names;
  for (const KernelDesc* kd : host_kernels()) names.emplace_back(kd->name);
  return names;
}

GemmKernelOverride::GemmKernelOverride(std::string_view variant)
    : prev_(t_forced_kernel) {
  for (const KernelDesc* kd : host_kernels()) {
    if (variant == kd->name) {
      t_forced_kernel = kd;
      return;
    }
  }
  throw std::invalid_argument("GemmKernelOverride: unknown variant " +
                              std::string(variant));
}

GemmKernelOverride::~GemmKernelOverride() {
  t_forced_kernel = static_cast<const KernelDesc*>(prev_);
}

void ensure_shape2(Tensor& t, std::size_t rows, std::size_t cols) {
  if (t.rank() != 2 || t.rows() != rows || t.cols() != cols) {
    t = Tensor({rows, cols});
  }
}

// --- naive reference oracles -----------------------------------------------
//
// The pre-blocking loops, retained verbatim minus one bug: the old
// `if (av == 0.0F) continue;` fast-skip silently dropped NaN/Inf
// propagation (0 * NaN must stay NaN so the optimizer's non-finite
// guards fire on poisoned inputs). No kernel skips zero multiplicands.

void gemm_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm A");
  check2(b, "gemm B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm: inner dim mismatch");
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  // ikj loop order: streams B rows, accumulates into C rows.
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    const float* arow = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_tn_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_tn A");
  check2(b, "gemm_tn B");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm_tn: inner dim mismatch");
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.data() + p * m;
    const float* brow = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_nt A");
  check2(b, "gemm_nt B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) throw std::invalid_argument("gemm_nt: inner dim mismatch");
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0F;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void syrk_tn_reference(const Tensor& a, float alpha, float beta, Tensor& c) {
  check2(a, "syrk_tn A");
  const std::size_t n = a.rows(), d = a.cols();
  if (c.rank() != 2 || c.rows() != d || c.cols() != d) {
    c = Tensor({d, d});
    beta = 0.0F;
  }
  for (auto& v : c.span()) v *= beta;
  for (std::size_t s = 0; s < n; ++s) {
    const float* row = a.data() + s * d;
    for (std::size_t i = 0; i < d; ++i) {
      const float av = alpha * row[i];
      float* crow = c.data() + i * d;
      for (std::size_t j = i; j < d; ++j) crow[j] += av * row[j];
    }
  }
  mirror_upper(c);
}

// --- blocked production kernels --------------------------------------------

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm A");
  check2(b, "gemm B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm: inner dim mismatch");
  if (use_reference(m, n, k)) {
    gemm_reference(a, b, c);
    return;
  }
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  gemm_driver({a.data(), k, false}, {b.data(), n, true}, c.data(), m, n, k,
              1.0F, false);
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_tn A");
  check2(b, "gemm_tn B");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm_tn: inner dim mismatch");
  if (use_reference(m, n, k)) {
    gemm_tn_reference(a, b, c);
    return;
  }
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  gemm_driver({a.data(), m, true}, {b.data(), n, true}, c.data(), m, n, k,
              1.0F, false);
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_nt A");
  check2(b, "gemm_nt B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) throw std::invalid_argument("gemm_nt: inner dim mismatch");
  if (use_reference(m, n, k)) {
    gemm_nt_reference(a, b, c);
    return;
  }
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  gemm_driver({a.data(), k, false}, {b.data(), k, false}, c.data(), m, n, k,
              1.0F, false);
}

void syrk_tn(const Tensor& a, float alpha, float beta, Tensor& c) {
  check2(a, "syrk_tn A");
  const std::size_t n = a.rows(), d = a.cols();
  if (use_reference(d, d, n)) {
    syrk_tn_reference(a, alpha, beta, c);
    return;
  }
  if (c.rank() != 2 || c.rows() != d || c.cols() != d) {
    c = Tensor({d, d});
    beta = 0.0F;
  }
  for (auto& v : c.span()) v *= beta;
  // C_upper += (alpha * A)^T A; alpha folds into the A pack, which matches
  // the reference's `(alpha * row[i]) * row[j]` operation order exactly.
  gemm_driver({a.data(), d, true}, {a.data(), d, true}, c.data(), d, d, n,
              alpha, true);
  mirror_upper(c);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  gemm(a, b, c);
  return c;
}

Tensor transpose(const Tensor& a) {
  check2(a, "transpose");
  Tensor t({a.cols(), a.rows()});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

void gemv(const Tensor& a, std::span<const float> x, std::span<float> y) {
  check2(a, "gemv A");
  const std::size_t m = a.rows(), n = a.cols();
  if (x.size() != n || y.size() != m) {
    throw std::invalid_argument("gemv: shape mismatch");
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    float acc = 0.0F;
    for (std::size_t j = 0; j < n; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

void add_diagonal(Tensor& a, float value) {
  check2(a, "add_diagonal");
  const std::size_t n = std::min(a.rows(), a.cols());
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) += value;
}

}  // namespace compso::tensor
