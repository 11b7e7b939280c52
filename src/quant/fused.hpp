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
//     separate required_bits sweep disappears).
//   - pack_scratch_codes: zigzag bit-packing of the int32 scratch into an
//     exactly-presized byte buffer (same LSB-first layout as BitWriter).
//   - fused_scatter_dequant / fused_dequant: the decode-side fusion —
//     bitmap scatter + dequantize in one pass over a 64-bit bit-stream
//     accumulator, instead of unpack-to-int64 + dequantize + per-bit
//     scatter.
//   - fused_reconstruct: the decoded values of a payload, straight from
//     the fused pass's scratch (error feedback needs them; no decode).
//
// All kernels consume the Rng in exactly the order the reference pipeline
// does (one uniform per survivor, survivor order), so payloads are
// bit-identical for a fixed seed. The scratch is caller-owned (the
// compressor keeps one per thread), so steady-state calls allocate
// nothing once capacities have grown to the largest layer.

#include "src/quant/rounding.hpp"
#include "src/tensor/rng.hpp"
#include "src/tensor/stats.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace compso::quant {

/// Elements per block of the fused pass; sized so the block's codes and
/// bitmap stay L1-resident between the quantize and pack stages.
constexpr std::size_t kFusedBlockElems = 4096;

/// Reusable per-thread workspace of the fused compress path.
struct FusedScratch {
  std::vector<std::int32_t> codes;   ///< survivor codes, compact order.
  std::vector<std::uint8_t> bitmap;  ///< filter bitmap (LSB-first).
  std::vector<std::uint8_t> packed;  ///< zigzag bit-packed codes.
};

/// Hierarchical extrema reduction; bit-identical to tensor::extrema for
/// finite inputs (abs_max is sign-insensitive, so ±0 ordering is moot).
tensor::Extrema extrema_blockwise(std::span<const float> v) noexcept;

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

/// The fused pass. `abs_max` is the precomputed extrema result;
/// `filter_bound` <= 0 or `use_filter` == false disables the filter
/// branch (no bitmap is built). Draws one rng uniform per survivor in
/// survivor order — the exact stream the unfused pipeline consumes.
FusedEncodeInfo fused_filter_quantize(std::span<const float> values,
                                      double filter_bound, double quant_bound,
                                      bool use_filter, double abs_max,
                                      RoundingMode mode, tensor::Rng& rng,
                                      FusedScratch& scratch);

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

/// What decoding the payload of a fused pass yields, written straight from
/// its int32 codes, bitmap and step: float(double(code) * step) for
/// survivors and 0.0F for filtered elements — the decoder's arithmetic, so
/// `out` (sized to the input's element count) is bit-identical to
/// decompressing the payload, without running the codec.
void fused_reconstruct(const FusedEncodeInfo& info,
                       const FusedScratch& scratch, std::span<float> out);

/// Decode fusion, unfiltered payloads: dequantize all `out.size()` codes
/// straight into `out`.
void fused_dequant(std::span<const std::uint8_t> packed, unsigned bit_width,
                   double step, std::span<float> out);

}  // namespace compso::quant
