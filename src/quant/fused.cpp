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

namespace compso::quant {

namespace {

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

/// Stochastic rounding, inlined: identical arithmetic to round_value's
/// kStochastic case (Eq. 4) — floor, fractional part, one uniform draw
/// compared in double — but visible to the optimizer inside the fused
/// loop, where the out-of-line call per survivor otherwise dominates.
inline std::int64_t sr_round(double x, tensor::Rng& rng) noexcept {
  const double lo = std::floor(x);
  const double frac = x - lo;
  const bool up = static_cast<double>(rng.uniform()) < frac;
  return static_cast<std::int64_t>(lo) + (up ? 1 : 0);
}

}  // namespace

tensor::Extrema extrema_blockwise(std::span<const float> v) noexcept {
  tensor::Extrema e;
  if (v.empty()) return e;
  float mn = v[0];
  float mx = v[0];
  std::size_t i = 0;
  const std::size_t n = v.size();
#if defined(__SSE2__)
  // Vector lanes per block (the CPU analogue of the paper's warp-level
  // tree reduction): min/max is associative + commutative over the finite
  // floats gradients contain, so lane order cannot change the result.
  // _mm_min_ps(v, mn) evaluates (v < mn) ? v : mn — the same expression
  // as std::min(mn, v) — so the scalar tail and merge agree exactly.
  for (; i + kFusedBlockElems <= n; i += kFusedBlockElems) {
    __m128 vmn0 = _mm_loadu_ps(v.data() + i);
    __m128 vmn1 = _mm_loadu_ps(v.data() + i + 4);
    __m128 vmx0 = vmn0;
    __m128 vmx1 = vmn1;
    for (std::size_t j = 8; j < kFusedBlockElems; j += 8) {
      const __m128 a = _mm_loadu_ps(v.data() + i + j);
      const __m128 b = _mm_loadu_ps(v.data() + i + j + 4);
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
    float mn0 = v[i], mn1 = v[i + 1], mn2 = v[i + 2], mn3 = v[i + 3];
    float mx0 = mn0, mx1 = mn1, mx2 = mn2, mx3 = mn3;
    for (std::size_t j = 4; j < kFusedBlockElems; j += 4) {
      mn0 = std::min(mn0, v[i + j]);
      mx0 = std::max(mx0, v[i + j]);
      mn1 = std::min(mn1, v[i + j + 1]);
      mx1 = std::max(mx1, v[i + j + 1]);
      mn2 = std::min(mn2, v[i + j + 2]);
      mx2 = std::max(mx2, v[i + j + 2]);
      mn3 = std::min(mn3, v[i + j + 3]);
      mx3 = std::max(mx3, v[i + j + 3]);
    }
    merge_minmax(mn, mx, std::min(std::min(mn0, mn1), std::min(mn2, mn3)),
                 std::max(std::max(mx0, mx1), std::max(mx2, mx3)));
  }
#endif
  for (; i < n; ++i) merge_minmax(mn, mx, v[i], v[i]);
  e.min = mn;
  e.max = mx;
  e.abs_max = std::max(std::fabs(mn), std::fabs(mx));
  return e;
}

bool codes_fit_int32(double quant_bound) noexcept {
  if (quant_bound <= 0.0) return false;
  // |x| <= 1/(2 eb) before rounding, so |code| <= 1/(2 eb) + 1; keep one
  // more unit of headroom so zigzag32 can never wrap.
  return 1.0 / (2.0 * quant_bound) + 2.0 <= 2147483646.0;
}

FusedEncodeInfo fused_filter_quantize(std::span<const float> values,
                                      double filter_bound, double quant_bound,
                                      bool use_filter, double abs_max,
                                      RoundingMode mode, tensor::Rng& rng,
                                      FusedScratch& scratch) {
  if (quant_bound <= 0.0) {
    throw std::invalid_argument("fused_filter_quantize: eb must be > 0");
  }
  const std::size_t n = values.size();
  FusedEncodeInfo info;
  info.filtered = use_filter && filter_bound > 0.0;
  scratch.codes.resize(n);  // worst case: nothing filtered
  if (info.filtered) {
    scratch.bitmap.assign((n + 7) / 8, 0);
  } else {
    scratch.bitmap.clear();
  }
  // Grow-only: pack_scratch_codes sets the exact size afterwards, so the
  // pass can emit speculative 8-bit packed bytes via data() without a
  // value-initializing resize on every call.
  if (scratch.packed.size() < n) scratch.packed.resize(n);

  if (abs_max == 0.0) {
    // All-zero buffer: the reference filter threshold is 0 (nothing is
    // filtered, fabs(v) < 0 never holds) and the reference quantizer
    // early-returns all-zero codes without touching the rng.
    std::fill(scratch.codes.begin(), scratch.codes.end(), 0);
    info.survivors = n;
    info.step = 0.0;
    info.bit_width = 1;
    return info;
  }

  const double threshold = info.filtered ? filter_bound * abs_max : 0.0;
  const double step = 2.0 * quant_bound * abs_max;
  info.step = step;
  std::int32_t* codes = scratch.codes.data();
  std::uint8_t* packed8 = scratch.packed.data();
  std::size_t survivors = 0;
  // OR of all zigzag codes: bit_width(or) == bit_width(max) since the OR
  // is >= the max and < the max's next power of two. Cheaper than a
  // per-survivor max, and it feeds the speculative 8-bit pack below.
  std::uint32_t zz_or = 0;

  // The filter test `fabs(double(v)) < threshold` is reformulated as an
  // unsigned integer compare on the float's magnitude bits: with
  // pred = the largest float strictly below threshold, a float |v| is
  // below the (double) threshold iff |v| <= pred, and magnitude bits are
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
  const auto filtered_bit = [pred_bits](float v) noexcept -> unsigned {
    return (std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFU) <= pred_bits;
  };

  // Per-survivor emission: code to the int32 scratch, the zigzag low byte
  // to the speculative 8-bit pack buffer (used verbatim when the final
  // width lands on 8 bits — the common case for gradient-scale bounds),
  // and the zigzag OR for the width reduction.
  const auto emit = [&](std::int32_t c) {
    const std::uint32_t zz = zigzag32(c);
    codes[survivors] = c;
    packed8[survivors] = static_cast<std::uint8_t>(zz);
    ++survivors;
    zz_or |= zz;
  };

  // One streaming pass, processed in L1-resident blocks: filter decision,
  // bitmap emission (byte-wise accumulator), stochastic rounding, and the
  // running required-bits maximum all happen per element, with no
  // intermediate survivor/code vectors. The rounding mode is dispatched
  // once out here so the dominant stochastic path inlines its draw.
  const auto pass = [&](auto&& round_one) {
    for (std::size_t base = 0; base < n; base += kFusedBlockElems) {
      const std::size_t end = std::min(n, base + kFusedBlockElems);
      if (info.filtered) {
        std::size_t i = base;
        // Full byte groups (base is block-aligned, blocks are multiples
        // of 8): build the filter byte with branch-free compares, then
        // visit only the survivor lanes in ascending order via
        // countr_zero. The data-dependent filter branch — mispredicted
        // ~2x per byte on gradient-shaped inputs — disappears; the rng
        // draw order (one uniform per survivor, index order) is
        // unchanged.
        for (; i + 8 <= end; i += 8) {
          std::uint8_t bits;
#if defined(__SSE2__)
          // Vectorized magnitude compare: both |v|'s bits and pred_bits
          // sit in [0, 0x7FFFFFFF], i.e. non-negative as signed int32, so
          // the signed PCMPGTD equals the unsigned `>` and MOVMSKPS of
          // its all-ones lanes yields the survivor bits directly.
          const __m128i vmask = _mm_set1_epi32(0x7FFFFFFF);
          const __m128i vpred =
              _mm_set1_epi32(static_cast<std::int32_t>(pred_bits));
          __m128i a = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(values.data() + i));
          __m128i b = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(values.data() + i + 4));
          a = _mm_and_si128(a, vmask);
          b = _mm_and_si128(b, vmask);
          const int sa =
              _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(a, vpred)));
          const int sb =
              _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(b, vpred)));
          bits = static_cast<std::uint8_t>(~(sa | (sb << 4)));
#else
          bits = 0;
          for (unsigned k = 0; k < 8; ++k) {
            bits |= static_cast<std::uint8_t>(filtered_bit(values[i + k])
                                              << k);
          }
#endif
          scratch.bitmap[i / 8] |= bits;
          auto surv = static_cast<std::uint8_t>(~bits);
          while (surv != 0) {
            const auto k = static_cast<unsigned>(std::countr_zero(surv));
            surv = static_cast<std::uint8_t>(surv & (surv - 1));
            emit(static_cast<std::int32_t>(
                round_one(static_cast<double>(values[i + k]) / step)));
          }
        }
        for (; i < end; ++i) {
          const float v = values[i];
          if (filtered_bit(v) != 0) {
            scratch.bitmap[i / 8] |=
                static_cast<std::uint8_t>(1U << (i % 8));
          } else {
            emit(static_cast<std::int32_t>(
                round_one(static_cast<double>(v) / step)));
          }
        }
      } else {
        for (std::size_t i = base; i < end; ++i) {
          emit(static_cast<std::int32_t>(
              round_one(static_cast<double>(values[i]) / step)));
        }
      }
    }
  };
  if (mode == RoundingMode::kStochastic) {
    pass([&rng](double x) { return sr_round(x, rng); });
  } else {
    pass([&rng, mode](double x) { return round_value(x, mode, rng); });
  }

  info.survivors = survivors;
  const unsigned bits = static_cast<unsigned>(std::bit_width(zz_or));
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

void fused_reconstruct(const FusedEncodeInfo& info,
                       const FusedScratch& scratch, std::span<float> out) {
  const std::int32_t* codes = scratch.codes.data();
  const double step = info.step;
  const auto next_value = [&codes, step] {
    return static_cast<float>(static_cast<double>(*codes++) * step);
  };
  if (!info.filtered) {
    for (float& o : out) o = next_value();
    return;
  }
  scatter_through_bitmap(scratch.bitmap, out, next_value);
}

}  // namespace compso::quant
