#include "src/quant/fused.hpp"

#include "src/quant/bitpack.hpp"
#include "src/quant/filter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define COMPSO_FUSED_AVX512 1
#endif

namespace compso::quant {

namespace {

/// Elements per block of extrema_blockwise's partial reductions.
constexpr std::size_t kFusedBlockElems = 4096;

/// Merges a block's [min, max] partial into the running extrema.
inline void merge_minmax(float& mn, float& mx, float bmn, float bmx) noexcept {
  mn = std::min(mn, bmn);
  mx = std::max(mx, bmx);
}

/// Zigzag for the int32 scratch codes (same mapping as the 64-bit one).
inline std::uint32_t zigzag32(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

/// Stochastic rounding of x = c / step against its drawn uniform u:
/// identical arithmetic to round_value's kStochastic case (Eq. 4) —
/// floor, fractional part, the uniform compared in double — inline, where
/// an out-of-line call per survivor would dominate the pass.
inline std::int32_t sr_code(double x, float u) noexcept {
  const double lo = std::floor(x);
  const double frac = x - lo;
  const bool up = static_cast<double>(u) < frac;
  return static_cast<std::int32_t>(static_cast<std::int64_t>(lo) +
                                   (up ? 1 : 0));
}

template <bool kResidual>
tensor::Extrema extrema_impl(const float* v, const float* e,
                             std::size_t n) noexcept {
  const auto cval = [v, e](std::size_t i) noexcept {
    if constexpr (kResidual) {
      return v[i] + e[i];
    } else {
      (void)e;
      return v[i];
    }
  };
  tensor::Extrema out;
  if (n == 0) return out;
  float mn = cval(0);
  float mx = mn;
  std::size_t i = 0;
#if defined(__SSE2__)
  const auto load = [v, e](std::size_t i) noexcept {
    if constexpr (kResidual) {
      return _mm_add_ps(_mm_loadu_ps(v + i), _mm_loadu_ps(e + i));
    } else {
      (void)e;
      return _mm_loadu_ps(v + i);
    }
  };
  // Vector lanes per block (the CPU analogue of the paper's warp-level
  // tree reduction): min/max is associative + commutative over the finite
  // floats gradients contain, so lane order cannot change the result.
  // _mm_min_ps(v, mn) evaluates (v < mn) ? v : mn — the same expression
  // as std::min(mn, v) — so the scalar tail and merge agree exactly.
  for (; i + kFusedBlockElems <= n; i += kFusedBlockElems) {
    __m128 vmn0 = load(i);
    __m128 vmn1 = load(i + 4);
    __m128 vmx0 = vmn0;
    __m128 vmx1 = vmn1;
    for (std::size_t j = 8; j < kFusedBlockElems; j += 8) {
      const __m128 a = load(i + j);
      const __m128 b = load(i + j + 4);
      vmn0 = _mm_min_ps(a, vmn0);
      vmx0 = _mm_max_ps(a, vmx0);
      vmn1 = _mm_min_ps(b, vmn1);
      vmx1 = _mm_max_ps(b, vmx1);
    }
    alignas(16) float lmn[4];
    alignas(16) float lmx[4];
    _mm_store_ps(lmn, _mm_min_ps(vmn0, vmn1));
    _mm_store_ps(lmx, _mm_max_ps(vmx0, vmx1));
    merge_minmax(mn, mx,
                 std::min(std::min(lmn[0], lmn[1]), std::min(lmn[2], lmn[3])),
                 std::max(std::max(lmx[0], lmx[1]), std::max(lmx[2], lmx[3])));
  }
#else
  for (; i + kFusedBlockElems <= n; i += kFusedBlockElems) {
    // Four independent lanes per block: same tree reduction, scalar ILP.
    float mn0 = cval(i), mn1 = cval(i + 1), mn2 = cval(i + 2),
          mn3 = cval(i + 3);
    float mx0 = mn0, mx1 = mn1, mx2 = mn2, mx3 = mn3;
    for (std::size_t j = 4; j < kFusedBlockElems; j += 4) {
      mn0 = std::min(mn0, cval(i + j));
      mx0 = std::max(mx0, cval(i + j));
      mn1 = std::min(mn1, cval(i + j + 1));
      mx1 = std::max(mx1, cval(i + j + 1));
      mn2 = std::min(mn2, cval(i + j + 2));
      mx2 = std::max(mx2, cval(i + j + 2));
      mn3 = std::min(mn3, cval(i + j + 3));
      mx3 = std::max(mx3, cval(i + j + 3));
    }
    merge_minmax(mn, mx, std::min(std::min(mn0, mn1), std::min(mn2, mn3)),
                 std::max(std::max(mx0, mx1), std::max(mx2, mx3)));
  }
#endif
  for (; i < n; ++i) {
    const float c = cval(i);
    merge_minmax(mn, mx, c, c);
  }
  out.min = mn;
  out.max = mx;
  out.abs_max = std::max(std::fabs(mn), std::fabs(mx));
  return out;
}

// ---------------------------------------------------------------------------
// The fused filter + quantize (+ error feedback) pass.
//
// Bit-identity rule: every variant computes each output with the same
// IEEE operations in the same order — c = float(g + e); x = double(c) /
// step; lo = floor(x); frac = x − lo; up = double(u) < frac; code =
// int32(int64(lo) + up); e' = c − float(double(code) · step) — each one
// correctly rounded op (no FMA; fused.cpp builds with -ffp-contract=off),
// and draws one uniform per survivor in index order. So vector lanes,
// block size and where the uniforms are drawn never change a bit.
// ---------------------------------------------------------------------------

/// Buffers and parameters of one pass.
struct PassIo {
  const float* g;
  const float* e;  ///< residual; unused unless the feedback instantiation.
  float* eo;       ///< residual out; likewise.
  std::size_t n;
  bool filtered;
  std::uint32_t pred_bits;  ///< c is filtered when |c|'s bits are <= this.
  double step;
  std::int32_t* codes;    ///< n + 8 slots: vector stores run 8 wide.
  std::uint8_t* packed8;  ///< n + 8 bytes, likewise.
  std::uint8_t* bitmap;   ///< ceil(n / 8) bytes when filtered.
};

struct PassResult {
  std::size_t survivors = 0;
  /// OR of all zigzag codes: bit_width(or) == bit_width(max) since the OR
  /// is >= the max and < the max's next power of two.
  std::uint32_t zz_or = 0;
};

/// One survivor's output: the code to the int32 scratch, the zigzag low
/// byte to the speculative 8-bit pack buffer (used verbatim when the final
/// width lands on 8 bits, the common case for gradient-scale bounds), the
/// zigzag OR, and in feedback mode e' at its element position.
template <bool kFeedback>
inline void emit_survivor(const PassIo& io, PassResult& r, std::size_t i,
                          float c, float u) noexcept {
  const std::int32_t code = sr_code(static_cast<double>(c) / io.step, u);
  const std::uint32_t zz = zigzag32(code);
  io.codes[r.survivors] = code;
  io.packed8[r.survivors] = static_cast<std::uint8_t>(zz);
  ++r.survivors;
  r.zz_or |= zz;
  if constexpr (kFeedback) {
    io.eo[i] = c - static_cast<float>(static_cast<double>(code) * io.step);
  }
}

/// The filter test `fabs(double(c)) < threshold` as an integer compare of
/// magnitude bits (see fused_filter_quantize).
inline bool filtered_out(const PassIo& io, float c) noexcept {
  return (std::bit_cast<std::uint32_t>(c) & 0x7FFFFFFFU) <= io.pred_bits;
}

template <bool kFeedback>
inline float c_at(const PassIo& io, std::size_t i) noexcept {
  if constexpr (kFeedback) {
    return io.g[i] + io.e[i];
  } else {
    return io.g[i];
  }
}

/// Elements [from, n) — the partial last bitmap byte — one at a time,
/// drawing straight from the rng.
template <bool kFeedback>
void scalar_tail(const PassIo& io, std::size_t from, tensor::Rng& rng,
                 PassResult& r) {
  if (from >= io.n) return;
  std::uint8_t bits = 0;
  for (std::size_t i = from; i < io.n; ++i) {
    const float c = c_at<kFeedback>(io, i);
    if (io.filtered && filtered_out(io, c)) {
      bits = static_cast<std::uint8_t>(bits | (1U << (i % 8)));
      if constexpr (kFeedback) io.eo[i] = c - 0.0F;
    } else {
      emit_survivor<kFeedback>(io, r, i, c, rng.uniform());
    }
  }
  if (io.filtered) io.bitmap[from / 8] = bits;
}

/// The baseline variant: one streaming pass with the filter byte built
/// branch-free (SSE2 where available), then only the survivor lanes
/// visited in ascending order via countr_zero — no data-dependent filter
/// branch (mispredicted ~2x per byte on gradient-shaped inputs) — each
/// drawing its uniform as it goes.
template <bool kFeedback>
PassResult pass_scalar(const PassIo& io, tensor::Rng& rng) {
  PassResult r;
  const std::size_t n = io.n;
  const std::size_t full = n & ~std::size_t{7};
  if (!io.filtered) {
    for (std::size_t i = 0; i < n; ++i) {
      emit_survivor<kFeedback>(io, r, i, c_at<kFeedback>(io, i),
                               rng.uniform());
    }
    return r;
  }
  for (std::size_t i = 0; i < full; i += 8) {
    std::uint8_t bits;
#if defined(__SSE2__)
    // filtered_out, four lanes at a time: both |c|'s bits and pred_bits
    // sit in [0, 0x7FFFFFFF], non-negative as signed int32, so the signed
    // PCMPGTD equals the unsigned `>` and MOVMSKPS of its all-ones lanes
    // yields the survivor bits directly.
    const __m128i vmask = _mm_set1_epi32(0x7FFFFFFF);
    const __m128i vpred =
        _mm_set1_epi32(static_cast<std::int32_t>(io.pred_bits));
    __m128 ca = _mm_loadu_ps(io.g + i);
    __m128 cb = _mm_loadu_ps(io.g + i + 4);
    if constexpr (kFeedback) {
      ca = _mm_add_ps(ca, _mm_loadu_ps(io.e + i));
      cb = _mm_add_ps(cb, _mm_loadu_ps(io.e + i + 4));
    }
    const __m128i a = _mm_and_si128(_mm_castps_si128(ca), vmask);
    const __m128i b = _mm_and_si128(_mm_castps_si128(cb), vmask);
    const int sa =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(a, vpred)));
    const int sb =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(b, vpred)));
    bits = static_cast<std::uint8_t>(~(sa | (sb << 4)));
#else
    bits = 0;
    for (unsigned k = 0; k < 8; ++k) {
      bits = static_cast<std::uint8_t>(
          bits | (filtered_out(io, c_at<kFeedback>(io, i + k)) << k));
    }
#endif
    io.bitmap[i / 8] = bits;
    if constexpr (kFeedback) {
      for (unsigned f = bits; f != 0; f &= f - 1) {
        const std::size_t j = i + static_cast<unsigned>(std::countr_zero(f));
        io.eo[j] = c_at<kFeedback>(io, j) - 0.0F;
      }
    }
    auto surv = static_cast<std::uint8_t>(~bits);
    while (surv != 0) {
      const auto k = static_cast<unsigned>(std::countr_zero(surv));
      surv = static_cast<std::uint8_t>(surv & (surv - 1));
      emit_survivor<kFeedback>(io, r, i + k, c_at<kFeedback>(io, i + k),
                               rng.uniform());
    }
  }
  scalar_tail<kFeedback>(io, full, rng, r);
  return r;
}

#if defined(COMPSO_FUSED_AVX512)

// GCC 12's AVX-512 conversion intrinsics seed their results from
// _mm512_undefined_*() placeholders, which -Wmaybe-uninitialized reports
// at every inlined use; the placeholders are fully overwritten.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Elements per block of the AVX-512 variant: the block's c values and
/// its uniforms (8 KiB each) stay L1-resident between its two sweeps.
constexpr std::size_t kVecBlockElems = 2048;

/// The AVX-512 variant, per block of kVecBlockElems (whole bitmap bytes;
/// the n % 8 tail goes through scalar_tail):
///  1. one sweep forms c (kept in L1 in feedback mode), builds the bitmap
///     with a vector magnitude compare and counts survivors;
///  2. the block's uniforms are drawn in survivor order into an L1 buffer
///     — the rng chain is serial, so this is the same stream the scalar
///     variant draws one survivor at a time;
///  3. a second sweep does divide, floor, compare, +1, zigzag, the
///     speculative 8-bit pack and e' eight lanes at a time, expanding the
///     uniforms onto the survivor lanes and compressing codes back to
///     survivor order. A group holding a survivor whose floor falls
///     outside int32 (only non-finite or outlier inputs reach that) runs
///     the scalar arithmetic instead, so int32(int64(lo)) keeps its bits.
/// c for elements [i, i + 8).
template <bool kFeedback>
[[gnu::target("avx512f,avx512vl,avx512dq"), gnu::always_inline]] inline __m256
load_c8(const PassIo& io, std::size_t i) {
  if constexpr (kFeedback) {
    return _mm256_add_ps(_mm256_loadu_ps(io.g + i), _mm256_loadu_ps(io.e + i));
  } else {
    return _mm256_loadu_ps(io.g + i);
  }
}

template <bool kFeedback>
[[gnu::target("avx512f,avx512vl,avx512dq")]] PassResult pass_avx512(
    const PassIo& io, tensor::Rng& rng) {
  alignas(64) float cbuf[kVecBlockElems];
  alignas(64) float ubuf[kVecBlockElems];
  const __m256i vmag = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i vpred = _mm256_set1_epi32(static_cast<int>(io.pred_bits));
  const __m256i vminus1 = _mm256_set1_epi32(-1);
  const __m512d vstep = _mm512_set1_pd(io.step);
  const __m512d vlo_min = _mm512_set1_pd(-2147483648.0);
  const __m512d vlo_end = _mm512_set1_pd(2147483648.0);
  __m256i vor = _mm256_setzero_si256();
  PassResult r;
  const std::size_t full = io.n & ~std::size_t{7};
  for (std::size_t base = 0; base < full; base += kVecBlockElems) {
    const std::size_t end = std::min(full, base + kVecBlockElems);
    std::size_t draws = end - base;
    if (io.filtered) {
      draws = 0;
      for (std::size_t i = base; i < end; i += 8) {
        const __m256 c = load_c8<kFeedback>(io, i);
        if constexpr (kFeedback) _mm256_store_ps(cbuf + (i - base), c);
        const __mmask8 surv = _mm256_cmpgt_epi32_mask(
            _mm256_and_si256(_mm256_castps_si256(c), vmag), vpred);
        io.bitmap[i / 8] = static_cast<std::uint8_t>(~surv);
        draws += static_cast<std::size_t>(std::popcount(surv));
      }
    } else if constexpr (kFeedback) {
      for (std::size_t i = base; i < end; i += 8) {
        _mm256_store_ps(cbuf + (i - base), load_c8<kFeedback>(io, i));
      }
    }
    for (std::size_t k = 0; k < draws; ++k) ubuf[k] = rng.uniform();

    const float* u = ubuf;
    for (std::size_t i = base; i < end; i += 8) {
      __m256 c;
      if constexpr (kFeedback) {
        c = _mm256_load_ps(cbuf + (i - base));
      } else {
        c = _mm256_loadu_ps(io.g + i);
      }
      const __mmask8 m = io.filtered
                             ? static_cast<__mmask8>(~io.bitmap[i / 8])
                             : static_cast<__mmask8>(0xFF);
      const __m512d x = _mm512_div_pd(_mm512_cvtps_pd(c), vstep);
      const __m512d lo =
          _mm512_roundscale_pd(x, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
      const __mmask8 in_range =
          _mm512_mask_cmp_pd_mask(m, lo, vlo_min, _CMP_GE_OQ) &
          _mm512_cmp_pd_mask(lo, vlo_end, _CMP_LT_OQ);
      if (in_range != m) [[unlikely]] {
        alignas(32) float cv[8];
        _mm256_store_ps(cv, c);
        for (unsigned k = 0; k < 8; ++k) {
          if (((m >> k) & 1U) != 0) {
            emit_survivor<kFeedback>(io, r, i + k, cv[k], *u++);
          } else if constexpr (kFeedback) {
            io.eo[i + k] = cv[k] - 0.0F;
          }
        }
        continue;
      }
      const __m512d frac = _mm512_sub_pd(x, lo);
      const __m512d uv = _mm512_cvtps_pd(_mm256_maskz_expandloadu_ps(m, u));
      const __mmask8 up = _mm512_mask_cmp_pd_mask(m, uv, frac, _CMP_LT_OQ);
      __m256i code = _mm512_cvttpd_epi32(lo);
      code = _mm256_mask_sub_epi32(code, up, code, vminus1);
      const __m256i zz = _mm256_xor_si256(_mm256_slli_epi32(code, 1),
                                          _mm256_srai_epi32(code, 31));
      vor = _mm256_mask_or_epi32(vor, m, vor, zz);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(io.codes + r.survivors),
          _mm256_maskz_compress_epi32(m, code));
      _mm_storel_epi64(
          reinterpret_cast<__m128i*>(io.packed8 + r.survivors),
          _mm256_cvtepi32_epi8(_mm256_maskz_compress_epi32(m, zz)));
      if constexpr (kFeedback) {
        const __m256 dec = _mm256_maskz_mov_ps(
            m, _mm512_cvtpd_ps(
                   _mm512_mul_pd(_mm512_cvtepi32_pd(code), vstep)));
        _mm256_storeu_ps(io.eo + i, _mm256_sub_ps(c, dec));
      }
      const auto k = static_cast<std::size_t>(std::popcount(m));
      r.survivors += k;
      u += k;
    }
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vor);
  for (const std::uint32_t l : lanes) r.zz_or |= l;
  scalar_tail<kFeedback>(io, full, rng, r);
  return r;
}

#pragma GCC diagnostic pop

bool host_has_avx512() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vl") &&
                         __builtin_cpu_supports("avx512dq");
  return ok;
}

#endif  // COMPSO_FUSED_AVX512

enum class PassVariant : int { kAvx512, kScalar };

/// Set by FusedPassOverride: the variant this thread's passes must use
/// (-1: the widest the host runs).
thread_local int t_forced_pass = -1;

std::vector<PassVariant> host_pass_variants() {
  std::vector<PassVariant> out;
#if defined(COMPSO_FUSED_AVX512)
  if (host_has_avx512()) out.push_back(PassVariant::kAvx512);
#endif
  out.push_back(PassVariant::kScalar);
  return out;
}

const char* variant_name(PassVariant v) noexcept {
  return v == PassVariant::kAvx512 ? "avx512" : "scalar";
}

PassVariant pick_pass() {
  if (t_forced_pass >= 0) return static_cast<PassVariant>(t_forced_pass);
  static const PassVariant widest = host_pass_variants().front();
  return widest;
}

template <bool kFeedback>
PassResult run_pass(const PassIo& io, tensor::Rng& rng) {
#if defined(COMPSO_FUSED_AVX512)
  if (pick_pass() == PassVariant::kAvx512) {
    return pass_avx512<kFeedback>(io, rng);
  }
#endif
  return pass_scalar<kFeedback>(io, rng);
}

}  // namespace

tensor::Extrema extrema_blockwise(std::span<const float> values,
                                  std::span<const float> residual) noexcept {
  return residual.empty()
             ? extrema_impl<false>(values.data(), nullptr, values.size())
             : extrema_impl<true>(values.data(), residual.data(),
                                  values.size());
}

std::vector<std::string> fused_pass_variants() {
  std::vector<std::string> names;
  for (const PassVariant v : host_pass_variants()) {
    names.emplace_back(variant_name(v));
  }
  return names;
}

FusedPassOverride::FusedPassOverride(std::string_view variant)
    : prev_(t_forced_pass) {
  for (const PassVariant v : host_pass_variants()) {
    if (variant == variant_name(v)) {
      t_forced_pass = static_cast<int>(v);
      return;
    }
  }
  throw std::invalid_argument("FusedPassOverride: unknown variant " +
                              std::string(variant));
}

FusedPassOverride::~FusedPassOverride() { t_forced_pass = prev_; }

bool codes_fit_int32(double quant_bound) noexcept {
  if (quant_bound <= 0.0) return false;
  // |x| <= 1/(2 eb) before rounding, so |code| <= 1/(2 eb) + 1; keep one
  // more unit of headroom so zigzag32 can never wrap.
  return 1.0 / (2.0 * quant_bound) + 2.0 <= 2147483646.0;
}

FusedEncodeInfo fused_filter_quantize(std::span<const float> values,
                                      std::span<const float> residual,
                                      double filter_bound, double quant_bound,
                                      bool use_filter, double abs_max,
                                      tensor::Rng& rng, FusedScratch& scratch,
                                      std::span<float> residual_out) {
  if (quant_bound <= 0.0) {
    throw std::invalid_argument("fused_filter_quantize: eb must be > 0");
  }
  const std::size_t n = values.size();
  const bool feedback = !residual.empty();
  if (residual.size() != residual_out.size() ||
      (feedback && residual.size() != n)) {
    throw std::invalid_argument(
        "fused_filter_quantize: residual size mismatch");
  }
  FusedEncodeInfo info;
  info.filtered = use_filter && filter_bound > 0.0;
  // Grow-only, with 8 slots of slack for the vector variant's 8-wide
  // stores: pack_scratch_codes sets the packed buffer's exact size
  // afterwards, so the pass never pays a value-initializing resize.
  if (scratch.codes.size() < n + 8) scratch.codes.resize(n + 8);
  if (scratch.packed.size() < n + 8) scratch.packed.resize(n + 8);
  scratch.bitmap.resize(info.filtered ? (n + 7) / 8 : 0);

  if (abs_max == 0.0) {
    // All-zero c: the reference filter threshold is 0 (nothing is
    // filtered, fabs(c) < 0 never holds) and the reference quantizer
    // early-returns all-zero codes without touching the rng; every
    // element decodes to 0.
    std::fill_n(scratch.codes.begin(), n, 0);
    std::fill(scratch.bitmap.begin(), scratch.bitmap.end(), 0);
    if (feedback) {
      for (std::size_t i = 0; i < n; ++i) {
        residual_out[i] = (values[i] + residual[i]) - 0.0F;
      }
    }
    info.survivors = n;
    info.step = 0.0;
    info.bit_width = 1;
    return info;
  }

  const double threshold = info.filtered ? filter_bound * abs_max : 0.0;
  info.step = 2.0 * quant_bound * abs_max;

  // The filter test `fabs(double(c)) < threshold` is reformulated as an
  // unsigned integer compare on the float's magnitude bits: with
  // pred = the largest float strictly below threshold, a float |c| is
  // below the (double) threshold iff |c| <= pred, and magnitude bits are
  // monotone over non-negative floats (denormals included; NaN/Inf bits
  // sort above every finite pred, matching the `<` comparison's false).
  // This drops the convert/abs/compare FP chain to a mask + compare per
  // element — bit-identical filtering decisions.
  std::uint32_t pred_bits = 0;
  if (info.filtered) {
    const auto ft = static_cast<float>(threshold);
    const float pred = static_cast<double>(ft) < threshold
                           ? ft
                           : std::nextafterf(ft, 0.0F);
    pred_bits = std::bit_cast<std::uint32_t>(pred);
  }
  const PassIo io{.g = values.data(),
                  .e = residual.data(),
                  .eo = residual_out.data(),
                  .n = n,
                  .filtered = info.filtered,
                  .pred_bits = pred_bits,
                  .step = info.step,
                  .codes = scratch.codes.data(),
                  .packed8 = scratch.packed.data(),
                  .bitmap = scratch.bitmap.data()};
  const PassResult r =
      feedback ? run_pass<true>(io, rng) : run_pass<false>(io, rng);
  info.survivors = r.survivors;
  const auto bits = static_cast<unsigned>(std::bit_width(r.zz_or));
  info.bit_width = bits == 0 ? 1 : bits;
  info.packed8_valid = true;
  return info;
}

void pack_scratch_codes(const FusedEncodeInfo& info, FusedScratch& scratch) {
  const std::size_t n = info.survivors;
  const unsigned bits = info.bit_width;
  scratch.packed.resize((n * bits + 7) / 8);
  std::uint8_t* out = scratch.packed.data();
  // Byte-aligned widths are the common case for gradient-scale error
  // bounds (eb ~1e-3 -> 8-bit codes): LSB-first packing of an aligned
  // width is plain little-endian bytes, no accumulator needed — and when
  // the fused pass already emitted them speculatively, no pass at all
  // (the resize above trims the buffer in place, preserving the prefix).
  if (bits == 8) {
    if (info.packed8_valid) return;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(zigzag32(scratch.codes[i]));
    }
    return;
  }
  if (bits == 16) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t zz = zigzag32(scratch.codes[i]);
      out[2 * i] = static_cast<std::uint8_t>(zz & 0xFF);
      out[2 * i + 1] = static_cast<std::uint8_t>((zz >> 8) & 0xFF);
    }
    return;
  }
  std::size_t pos = 0;
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // bits <= 33 (int32 zigzag), so the accumulator never overflows:
    // acc_bits < 8 on entry, acc_bits < 41 after the OR.
    acc |= static_cast<std::uint64_t>(zigzag32(scratch.codes[i])) << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out[pos++] = static_cast<std::uint8_t>(acc & 0xFF);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out[pos++] = static_cast<std::uint8_t>(acc & 0xFF);
}

namespace {

/// Streaming LSB-first bit reader over a validated payload blob: refills
/// a 64-bit accumulator a byte at a time, so a w-bit read is one mask +
/// shift instead of BitReader's per-byte loop. Callers guarantee the
/// stream holds every bit they read (the compressor validates blob size
/// against survivors * bit_width up front), so there is no end-of-stream
/// branch in the hot loop beyond the refill bound.
struct FastBitStream {
  const std::uint8_t* p;
  const std::uint8_t* end;
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;

  explicit FastBitStream(std::span<const std::uint8_t> bytes) noexcept
      : p(bytes.data()), end(bytes.data() + bytes.size()) {}

  inline void refill() noexcept {
    if (acc_bits > 56) return;
    // The wide path can leave partial-byte garbage above acc_bits (bits of
    // the 8-byte load that were OR'd in but not counted as consumed);
    // clear it before inserting fresh bytes.
    acc &= (std::uint64_t{1} << acc_bits) - 1;
    if constexpr (std::endian::native == std::endian::little) {
      if (end - p >= 8) {
        // Wide refill: one 8-byte load instead of a byte loop. Advancing
        // by (63 - acc_bits)/8 bytes and setting acc_bits |= 56 is the
        // standard identity — afterwards acc_bits = 56 + (old & 7), which
        // counts exactly the bytes consumed.
        std::uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        acc |= w << acc_bits;
        p += (63 - acc_bits) >> 3;
        acc_bits |= 56;
        return;
      }
    }
    while (acc_bits <= 56 && p != end) {
      acc |= static_cast<std::uint64_t>(*p++) << acc_bits;
      acc_bits += 8;
    }
  }

  /// bits in [1, 57]; the wide-width decode path splits larger reads.
  inline std::uint64_t read(unsigned bits) noexcept {
    refill();
    const std::uint64_t out = acc & ((1ULL << bits) - 1);
    const unsigned used = std::min(bits, acc_bits);
    acc >>= used;
    acc_bits -= used;
    return out;
  }

  /// Full-range read (bits in [1, 64]) for hostile-but-valid payloads
  /// that claim extreme widths.
  inline std::uint64_t read_wide(unsigned bits) noexcept {
    if (bits <= 57) return read(bits);
    const std::uint64_t lo = read(32);
    return lo | (read(bits - 32) << 32);
  }
};

inline float dequant_one(std::uint64_t zz, double step) noexcept {
  return static_cast<float>(static_cast<double>(zigzag_decode(zz)) * step);
}

/// Writes `out` through the filter bitmap: filtered positions become 0,
/// survivors take next_value() in ascending order. The per-bit
/// filtered/survivor branch is the expensive part of a scatter
/// (data-dependent, mispredicted ~2x per byte). Instead: zero the whole
/// 8-lane group unconditionally (one vector store), then overwrite just
/// the survivor lanes in ascending order via countr_zero — the same code
/// order the packer emitted. Returns the number of survivors written.
template <typename NextValue>
std::size_t scatter_through_bitmap(std::span<const std::uint8_t> bitmap,
                                   std::span<float> out,
                                   NextValue&& next_value) {
  const std::size_t n = out.size();
  std::size_t read_codes = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint8_t byte = bitmap[i / 8];
    if (byte == 0) {
      // Full byte of survivors: no zeroing, no bit iteration.
      for (unsigned k = 0; k < 8; ++k) out[i + k] = next_value();
      read_codes += 8;
      continue;
    }
    for (unsigned k = 0; k < 8; ++k) out[i + k] = 0.0F;
    auto surv = static_cast<std::uint8_t>(~byte);
    while (surv != 0) {
      const auto k = static_cast<unsigned>(std::countr_zero(surv));
      surv = static_cast<std::uint8_t>(surv & (surv - 1));
      out[i + k] = next_value();
      ++read_codes;
    }
  }
  for (; i < n; ++i) {
    if ((bitmap[i / 8] >> (i % 8)) & 1U) {
      out[i] = 0.0F;
    } else {
      out[i] = next_value();
      ++read_codes;
    }
  }
  return read_codes;
}

}  // namespace

void fused_scatter_dequant(std::span<const std::uint8_t> packed,
                           unsigned bit_width, double step,
                           std::span<const std::uint8_t> bitmap,
                           std::size_t survivors, std::span<float> out) {
  if (bit_width == 0 || bit_width > 64) {
    throw std::invalid_argument("fused_scatter_dequant: bad bit width");
  }
  FastBitStream bs(packed);
  std::size_t read_codes = 0;
  const auto scatter = [&](auto&& next_value) {
    read_codes = scatter_through_bitmap(bitmap, out, next_value);
  };
  if (bit_width == 8) {
    // Byte-aligned codes: stage the whole dequantization as a separate
    // vectorizable sweep — zigzag decode and float(double(c) * step)
    // four lanes at a time, with the exact scalar double-rounding (the
    // int32 zigzag agrees with the int64 one for byte codes, cvtepi32_pd
    // is exact, and mulpd/cvtpd_ps round exactly like the scalar ops) —
    // then the branchy bitmap scatter just moves finished floats. The
    // serial convert chain leaves the mispredicting loop entirely.
    static thread_local std::vector<float> staged;
    if (staged.size() < survivors) staged.resize(survivors);
    const std::uint8_t* pc = packed.data();
    const std::size_t m = std::min(survivors, packed.size());
    float* sd = staged.data();
    std::size_t i = 0;
#if defined(__SSE2__)
    const __m128d vstep = _mm_set1_pd(step);
    const __m128i zero = _mm_setzero_si128();
    const __m128i one = _mm_set1_epi32(1);
    for (; i + 4 <= m; i += 4) {
      std::uint32_t w;
      std::memcpy(&w, pc + i, 4);
      __m128i z = _mm_cvtsi32_si128(static_cast<int>(w));
      z = _mm_unpacklo_epi8(z, zero);
      z = _mm_unpacklo_epi16(z, zero);  // 4 lanes of zz in [0, 255]
      const __m128i c = _mm_xor_si128(_mm_srli_epi32(z, 1),
                                      _mm_sub_epi32(zero,
                                                    _mm_and_si128(z, one)));
      const __m128d d0 = _mm_cvtepi32_pd(c);
      const __m128d d1 = _mm_cvtepi32_pd(
          _mm_shuffle_epi32(c, _MM_SHUFFLE(1, 0, 3, 2)));
      const __m128 f0 = _mm_cvtpd_ps(_mm_mul_pd(d0, vstep));
      const __m128 f1 = _mm_cvtpd_ps(_mm_mul_pd(d1, vstep));
      _mm_storeu_ps(sd + i, _mm_movelh_ps(f0, f1));
    }
#endif
    for (; i < m; ++i) sd[i] = dequant_one(pc[i], step);
    // Past-end codes read as zero bits (mirrors FastBitStream; only
    // reachable through direct API misuse — wire payloads are
    // size-validated before reaching here).
    for (; i < survivors; ++i) sd[i] = dequant_one(0, step);
    const float* sp = sd;
    const float* const send = sd + survivors;
    scatter([&sp, send] { return sp < send ? *sp++ : 0.0F; });
  } else if (bit_width == 16) {
    const std::uint8_t* pc = packed.data();
    const std::uint8_t* const pcend = pc + packed.size();
    scatter([&pc, pcend, step]() -> float {
      std::uint64_t zz;
      if (pcend - pc < 2) {
        zz = pc < pcend ? static_cast<std::uint64_t>(*pc++) : 0ULL;
      } else {
        zz = static_cast<std::uint64_t>(pc[0]) |
             (static_cast<std::uint64_t>(pc[1]) << 8);
        pc += 2;
      }
      return dequant_one(zz, step);
    });
  } else if (bit_width <= 57) {
    scatter([&bs, bit_width, step] {
      return dequant_one(bs.read(bit_width), step);
    });
  } else {
    scatter([&bs, bit_width, step] {
      return dequant_one(bs.read_wide(bit_width), step);
    });
  }
  if (read_codes != survivors) {
    // The caller's popcount check makes this unreachable for wire data;
    // keep it as a cheap invariant for direct API misuse.
    throw std::invalid_argument(
        "fused_scatter_dequant: survivor count mismatch");
  }
}

void fused_dequant(std::span<const std::uint8_t> packed, unsigned bit_width,
                   double step, std::span<float> out) {
  if (bit_width == 0 || bit_width > 64) {
    throw std::invalid_argument("fused_dequant: bad bit width");
  }
  if (bit_width == 8) {
    const std::uint8_t* pc = packed.data();
    const std::uint8_t* const pcend = pc + packed.size();
    for (float& o : out) {
      const std::uint64_t zz =
          pc < pcend ? static_cast<std::uint64_t>(*pc++) : 0ULL;
      o = dequant_one(zz, step);
    }
    return;
  }
  FastBitStream bs(packed);
  if (bit_width <= 57) {
    for (float& o : out) o = dequant_one(bs.read(bit_width), step);
  } else {
    for (float& o : out) o = dequant_one(bs.read_wide(bit_width), step);
  }
}

}  // namespace compso::quant
