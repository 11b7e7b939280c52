#pragma once
// Fused single-pass compression kernels (paper §4.5, DESIGN.md §10).
//
// The reference COMPSO pipeline is four separate sweeps over the gradient
// (extrema, filter, quantize, pack), each materializing an intermediate
// buffer — the PyTorch-style multi-pass dispatch the paper argues against.
// These kernels are the fused rewrite:
//
//   - extrema_blockwise: hierarchical min/max reduction (block partials +
//     lane-unrolled tree merge, the CPU mirror of the paper's
//     block-reduction + warp-shuffle scheme). Min/max is associative and
//     commutative, so the result is bit-identical to the sequential scan.
//   - fused_filter_quantize: ONE pass that decides the filter bit, emits
//     the bitmap bytewise, and stochastic-rounds survivors into a compact
//     int32 code scratch while tracking the max zigzag code (so the
//     separate required_bits sweep disappears). With a residual it also
//     does error feedback's arithmetic: it compresses c = values +
//     residual, formed on the fly, and writes e' = c − decode(c) — what
//     the payload decodes to, from the codes, with no decode.
//   - pack_scratch_codes: zigzag bit-packing of the int32 scratch into an
//     exactly-presized byte buffer (same LSB-first layout as BitWriter).
//   - fused_scatter_dequant / fused_dequant: the decode-side fusion —
//     bitmap scatter + dequantize in one pass over a 64-bit bit-stream
//     accumulator, instead of unpack-to-int64 + dequantize + per-bit
//     scatter.
//
// All kernels consume the Rng in exactly the order the reference pipeline
// does (one uniform per survivor, survivor order), so payloads are
// bit-identical for a fixed seed. The scratch is caller-owned (the
// compressor keeps one per thread), so steady-state calls allocate
// nothing once capacities have grown to the largest layer.

#include "src/tensor/rng.hpp"
#include "src/tensor/stats.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace compso::quant {

/// Reusable per-thread workspace of the fused compress path.
struct FusedScratch {
  std::vector<std::int32_t> codes;   ///< survivor codes, compact order.
  std::vector<std::uint8_t> bitmap;  ///< filter bitmap (LSB-first).
  std::vector<std::uint8_t> packed;  ///< zigzag bit-packed codes.
};

/// Hierarchical extrema reduction of c = values + residual (c = values
/// when `residual` is empty; otherwise it has values' size). Bit-identical
/// to tensor::extrema over the materialized c for finite inputs
/// (abs_max is sign-insensitive, so ±0 ordering is moot).
tensor::Extrema extrema_blockwise(
    std::span<const float> values,
    std::span<const float> residual = {}) noexcept;

/// True when every code the quantizer can emit for this bound fits the
/// int32 scratch (zigzag included). Bounds down to ~1e-9 qualify; callers
/// fall back to the reference pipeline for pathological tighter bounds.
bool codes_fit_int32(double quant_bound) noexcept;

/// Outcome of the fused filter+quantize pass.
struct FusedEncodeInfo {
  std::size_t survivors = 0;  ///< codes written to scratch.codes.
  unsigned bit_width = 1;     ///< required_bits of the survivor codes.
  double step = 0.0;          ///< quantization step (0 = all-zero buffer).
  bool filtered = false;      ///< a bitmap was produced.
  /// fused_filter_quantize already wrote scratch.packed[i] = low byte of
  /// zigzag(code i) for every survivor, so an 8-bit pack is a resize.
  bool packed8_valid = false;
};

/// The fused pass over c = values + residual (c = values when `residual`
/// is empty). `abs_max` is extrema_blockwise's result for the same c;
/// `filter_bound` <= 0 or `use_filter` == false disables the filter
/// branch (no bitmap is built). Stochastic rounding draws one rng
/// uniform per survivor in survivor order — the exact stream the unfused
/// pipeline consumes. `residual` and `residual_out` are both empty or
/// both values' size. Then `residual_out` receives error
/// feedback's new residual e' = c − float(double(code) · step) on
/// survivors and c − 0.0F on filtered elements: c minus what the payload
/// decodes to, bit for bit.
FusedEncodeInfo fused_filter_quantize(std::span<const float> values,
                                      std::span<const float> residual,
                                      double filter_bound, double quant_bound,
                                      bool use_filter, double abs_max,
                                      tensor::Rng& rng, FusedScratch& scratch,
                                      std::span<float> residual_out = {});

/// Test seam, like tensor::gemm_kernel_variants: the compiled variants of
/// fused_filter_quantize this host can run, widest first ("avx512",
/// "scalar"). Production calls use the first.
std::vector<std::string> fused_pass_variants();

/// Test seam: while alive, fused_filter_quantize calls on this thread run
/// the named variant. Throws std::invalid_argument for a name
/// fused_pass_variants() does not list.
class FusedPassOverride {
 public:
  explicit FusedPassOverride(std::string_view variant);
  ~FusedPassOverride();
  FusedPassOverride(const FusedPassOverride&) = delete;
  FusedPassOverride& operator=(const FusedPassOverride&) = delete;

 private:
  int prev_;
};

/// Packs scratch.codes[0..info.survivors) at info.bit_width into
/// scratch.packed (resized to exactly ceil(survivors * bit_width / 8)).
void pack_scratch_codes(const FusedEncodeInfo& info, FusedScratch& scratch);

/// Decode fusion, filtered payloads: reads `survivors` fixed-width zigzag
/// codes from `packed` and scatters their dequantized values through the
/// bitmap into `out` (filtered positions become 0). The caller has
/// already validated popcount/size consistency.
void fused_scatter_dequant(std::span<const std::uint8_t> packed,
                           unsigned bit_width, double step,
                           std::span<const std::uint8_t> bitmap,
                           std::size_t survivors, std::span<float> out);

/// Decode fusion, unfiltered payloads: dequantize all `out.size()` codes
/// straight into `out`.
void fused_dequant(std::span<const std::uint8_t> packed, unsigned bit_width,
                   double step, std::span<float> out);

}  // namespace compso::quant
