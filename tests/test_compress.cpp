// Tests for the gradient-compressor suite: roundtrip fidelity, error
// bounds, compression-ratio ordering (the Fig. 3 / §5.2 relationships),
// and GPU-throughput model ordering (Fig. 8).

#include "src/common/payload_error.hpp"
#include "src/compress/compressor.hpp"
#include "src/quant/fused.hpp"
#include "src/tensor/stats.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace cp = compso::compress;
namespace ct = compso::tensor;

namespace {

std::vector<float> kfac_grad(std::size_t n, std::uint64_t seed) {
  ct::Rng rng(seed);
  return ct::synthetic_gradient(n, ct::GradientProfile::kfac(), rng);
}

// ---- identity ----

TEST(Identity, ExactRoundtrip) {
  ct::Rng rng(1);
  const auto data = kfac_grad(10000, 1);
  const auto c = cp::make_identity();
  const auto payload = c->compress(data, rng);
  EXPECT_EQ(c->decompress(payload), data);
  EXPECT_NEAR(c->compression_ratio(data, rng), 1.0, 0.01);
}

// ---- COMPSO ----

TEST(Compso, RoundtripPreservesCountAndBound) {
  ct::Rng rng(2);
  const auto data = kfac_grad(50000, 2);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const auto payload = c->compress(data, rng);
  const auto rec = c->decompress(payload);
  ASSERT_EQ(rec.size(), data.size());
  // Total error <= max(filter threshold, SR step): both are
  // O(eb * abs_max).
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  const double bound = 2.0 * 4e-3 * abs_max;  // SR step dominates
  EXPECT_LE(ct::max_abs_error(data, rec), bound * (1.0 + 1e-6));
}

TEST(Compso, FilteredValuesBecomeZero) {
  ct::Rng rng(3);
  const auto data = kfac_grad(20000, 3);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const auto rec = c->decompress(c->compress(data, rng));
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  const double thr = 4e-3 * abs_max;
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::fabs(data[i]) < thr) {
      EXPECT_EQ(rec[i], 0.0F);
      ++zeros;
    }
  }
  EXPECT_GT(zeros, data.size() / 4);  // the filter is doing real work
}

TEST(Compso, SrOnlyModeSkipsFilter) {
  ct::Rng rng(4);
  const auto data = kfac_grad(20000, 4);
  cp::CompsoParams p;
  p.use_filter = false;
  const auto c = cp::make_compso(p);
  const auto rec = c->decompress(c->compress(data, rng));
  // Without the filter no value is force-zeroed; SR keeps small values
  // stochastically, so some near-zero inputs stay nonzero.
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  const double bound = 2.0 * 4e-3 * abs_max;
  EXPECT_LE(ct::max_abs_error(data, rec), bound * (1.0 + 1e-6));
}

TEST(Compso, HighRatioOnKfacGradients) {
  // Paper headline: ~22x average compression ratio on KFAC gradients.
  ct::Rng rng(5);
  const auto data = kfac_grad(1 << 18, 5);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const double cr = c->compression_ratio(data, rng);
  EXPECT_GT(cr, 10.0);
}

TEST(Compso, FilterImprovesRatio) {
  ct::Rng rng(6);
  const auto data = kfac_grad(1 << 17, 6);
  cp::CompsoParams with;
  cp::CompsoParams without;
  without.use_filter = false;
  const double cr_with = cp::make_compso(with)->compression_ratio(data, rng);
  const double cr_without =
      cp::make_compso(without)->compression_ratio(data, rng);
  EXPECT_GT(cr_with, cr_without);
}

TEST(Compso, TighterBoundLowersRatio) {
  ct::Rng rng(7);
  const auto data = kfac_grad(1 << 16, 7);
  cp::CompsoParams loose;
  loose.filter_bound = loose.quant_bound = 1e-2;
  cp::CompsoParams tight;
  tight.filter_bound = tight.quant_bound = 1e-4;
  EXPECT_GT(cp::make_compso(loose)->compression_ratio(data, rng),
            cp::make_compso(tight)->compression_ratio(data, rng));
}

TEST(Compso, WorksWithEveryEncoder) {
  ct::Rng rng(8);
  const auto data = kfac_grad(1 << 14, 8);
  for (auto kind : compso::codec::kAllCodecKinds) {
    cp::CompsoParams p;
    p.encoder = kind;
    const auto c = cp::make_compso(p);
    const auto rec = c->decompress(c->compress(data, rng));
    ASSERT_EQ(rec.size(), data.size()) << compso::codec::to_string(kind);
  }
}

TEST(Compso, EmptyAndTinyInputs) {
  ct::Rng rng(9);
  const auto c = cp::make_compso(cp::CompsoParams{});
  for (std::size_t n : {0UL, 1UL, 2UL, 9UL}) {
    std::vector<float> data(n, 0.25F);
    const auto rec = c->decompress(c->compress(data, rng));
    EXPECT_EQ(rec.size(), n);
  }
}

TEST(Compso, AllZeroInput) {
  ct::Rng rng(10);
  std::vector<float> data(1000, 0.0F);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const auto rec = c->decompress(c->compress(data, rng));
  for (float v : rec) EXPECT_EQ(v, 0.0F);
}

// ---- QSGD ----

TEST(Qsgd, RoundtripWithBound) {
  ct::Rng rng(11);
  const auto data = kfac_grad(30000, 11);
  const auto c = cp::make_qsgd(8);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  EXPECT_LE(ct::max_abs_error(data, rec), abs_max / 127.0 * (1.0 + 1e-6));
}

TEST(Qsgd, FourBitHasHigherRatioButMoreError) {
  ct::Rng rng(12);
  const auto data = kfac_grad(1 << 16, 12);
  const auto c8 = cp::make_qsgd(8);
  const auto c4 = cp::make_qsgd(4);
  EXPECT_GT(c4->compression_ratio(data, rng),
            c8->compression_ratio(data, rng));
  const auto r8 = c8->decompress(c8->compress(data, rng));
  const auto r4 = c4->decompress(c4->compress(data, rng));
  EXPECT_GT(ct::rmse(data, r4), ct::rmse(data, r8));
}

TEST(Qsgd, UnbiasedReconstruction) {
  // SR makes QSGD unbiased: averaging many compressions approaches input.
  const std::vector<float> data{0.013F, -0.004F, 0.020F, 0.001F};
  const auto c = cp::make_qsgd(4);
  std::vector<double> acc(data.size(), 0.0);
  const int trials = 20000;
  ct::Rng rng(13);
  for (int t = 0; t < trials; ++t) {
    const auto rec = c->decompress(c->compress(data, rng));
    for (std::size_t i = 0; i < data.size(); ++i) acc[i] += rec[i];
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(acc[i] / trials, data[i], 4e-4) << "i=" << i;
  }
}

// ---- SZ ----

TEST(Sz, RoundtripRespectsErrorBound) {
  ct::Rng rng(14);
  const auto data = kfac_grad(30000, 14);
  const double eb = 4e-3;
  const auto c = cp::make_sz(eb);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  const auto ex = ct::extrema(std::span<const float>(data));
  const double range = static_cast<double>(ex.max) - ex.min;
  // RN on the prediction error: bound is eb * range per element.
  EXPECT_LE(ct::max_abs_error(data, rec), eb * range * (1.0 + 1e-5));
}

TEST(Sz, LooseBoundCompressesMore) {
  ct::Rng rng(15);
  const auto data = kfac_grad(1 << 16, 15);
  EXPECT_GT(cp::make_sz(1e-1)->compression_ratio(data, rng),
            cp::make_sz(4e-3)->compression_ratio(data, rng));
}

TEST(Sz, SmoothDataCompressesWell) {
  // SZ's Lorenzo predictor was designed for smooth scientific data.
  ct::Rng rng(16);
  const auto data = ct::synthetic_smooth(1 << 16, rng);
  EXPECT_GT(cp::make_sz(1e-3)->compression_ratio(data, rng), 3.0);
}

// ---- CocktailSGD ----

TEST(Cocktail, RoundtripKeepsSampledPositionsOnly) {
  // Use values far from zero so 8-bit quantization cannot produce exact
  // zeros: every sampled position stays nonzero, every dropped one is 0.
  ct::Rng rng(17);
  std::vector<float> data(20000);
  for (auto& v : data) {
    v = rng.uniform(0.5F, 1.0F) * (rng.uniform() < 0.5F ? -1.0F : 1.0F);
  }
  const auto c = cp::make_cocktail(0.2, 8);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  std::size_t nonzero = 0;
  for (float v : rec) nonzero += v != 0.0F ? 1 : 0;
  // ~20% of positions survive (binomial sampling jitter allowed).
  EXPECT_NEAR(static_cast<double>(nonzero) / static_cast<double>(rec.size()),
              0.2, 0.02);
}

TEST(Cocktail, ConstantRatioNearTwenty) {
  // Paper §5.2: CocktailSGD maintains a constant ratio of ~20x
  // (20% sparsity x 8-bit quantization).
  ct::Rng rng(18);
  const auto data = kfac_grad(1 << 17, 18);
  const double cr = cp::make_cocktail(0.2, 8)->compression_ratio(data, rng);
  EXPECT_NEAR(cr, 20.0, 2.0);
}

// ---- TopK ----

TEST(TopK, KeepsLargestMagnitudes) {
  std::vector<float> data{0.1F, -5.0F, 0.2F, 3.0F, -0.05F, 1.0F};
  ct::Rng rng(19);
  const auto c = cp::make_topk(0.5);
  const auto rec = c->decompress(c->compress(data, rng));
  EXPECT_EQ(rec[1], -5.0F);
  EXPECT_EQ(rec[3], 3.0F);
  EXPECT_EQ(rec[5], 1.0F);
  EXPECT_EQ(rec[0], 0.0F);
  EXPECT_EQ(rec[2], 0.0F);
  EXPECT_EQ(rec[4], 0.0F);
}

TEST(TopK, ExactValuesPreserved) {
  ct::Rng rng(20);
  const auto data = kfac_grad(10000, 20);
  const auto c = cp::make_topk(0.1);
  const auto rec = c->decompress(c->compress(data, rng));
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (rec[i] != 0.0F) {
      EXPECT_EQ(rec[i], data[i]);
    }
  }
}

// ---- cross-method orderings (Fig. 3 left / §5.2) ----

TEST(Ordering, CompsoBeatsAccuracyPreservingBaselines) {
  // At accuracy-preserving settings (SZ 4e-3, QSGD 8-bit) COMPSO's ratio
  // is far ahead (paper: ~22x vs 5-16x).
  ct::Rng rng(21);
  const auto data = kfac_grad(1 << 18, 21);
  const double compso =
      cp::make_compso(cp::CompsoParams{})->compression_ratio(data, rng);
  const double sz = cp::make_sz(4e-3)->compression_ratio(data, rng);
  const double qsgd = cp::make_qsgd(8)->compression_ratio(data, rng);
  EXPECT_GT(compso, sz);
  EXPECT_GT(compso, qsgd);
}

TEST(Ordering, Qsgd4BitBeatsQsgd8BitOnRatio) {
  ct::Rng rng(22);
  const auto data = kfac_grad(1 << 16, 22);
  EXPECT_GT(cp::make_qsgd(4)->compression_ratio(data, rng),
            cp::make_qsgd(8)->compression_ratio(data, rng));
}

// ---- GPU throughput model (Fig. 8 orderings) ----

TEST(GpuModel, FusedCudaBeatsPytorchDispatch) {
  const auto dev = compso::gpusim::DeviceModel::a100();
  const std::size_t in = 64U << 20;
  const auto qsgd = cp::make_qsgd(8);        // fused kernel profile
  const auto cocktail = cp::make_cocktail(0.2, 8);  // PyTorch profile
  EXPECT_GT(qsgd->modeled_throughput(dev, in, in / 8),
            cocktail->modeled_throughput(dev, in, in / 20));
}

TEST(GpuModel, QsgdFasterThanCompsoWhichBeatsCocktail) {
  // §5.3: QSGD (fewer ops, no filter) > COMPSO > CocktailSGD (~1.7x gap).
  const auto dev = compso::gpusim::DeviceModel::a100();
  const std::size_t in = 64U << 20;
  const double t_qsgd =
      cp::make_qsgd(8)->modeled_throughput(dev, in, in / 8);
  const double t_compso = cp::make_compso(cp::CompsoParams{})
                              ->modeled_throughput(dev, in, in / 22);
  const double t_cocktail =
      cp::make_cocktail(0.2, 8)->modeled_throughput(dev, in, in / 20);
  EXPECT_GT(t_qsgd, t_compso);
  EXPECT_GT(t_compso, t_cocktail);
  EXPECT_GT(t_compso / t_cocktail, 1.3);  // paper reports ~1.7x
}

TEST(GpuModel, ThroughputGrowsWithDataSize) {
  // Launch overhead amortizes: throughput rises with size (Fig. 8 shape).
  const auto dev = compso::gpusim::DeviceModel::a100();
  const auto c = cp::make_compso(cp::CompsoParams{});
  const double t_small = c->modeled_throughput(dev, 1U << 20, (1U << 20) / 22);
  const double t_large = c->modeled_throughput(dev, 128U << 20, (128U << 20) / 22);
  EXPECT_GT(t_large, t_small);
}

// ---- fused pipeline vs the multi-pass reference oracle ----
//
// make_compso is the fused single-pass implementation; make_compso_reference
// is the original multi-pass pipeline kept as the bit-exactness oracle.
// For any fixed Rng state the two must produce byte-identical payloads and
// identical reconstructions.

void expect_bit_identical(const cp::CompsoParams& params,
                          const std::vector<float>& data,
                          std::uint64_t seed) {
  const auto fused = cp::make_compso(params);
  const auto reference = cp::make_compso_reference(params);
  ct::Rng rng_f(seed);
  ct::Rng rng_r(seed);
  const auto payload_f = fused->compress(data, rng_f);
  const auto payload_r = reference->compress(data, rng_r);
  ASSERT_EQ(payload_f, payload_r);
  // Both consumed the same number of draws: the streams stay aligned.
  EXPECT_EQ(rng_f(), rng_r());
  // Cross-decode both ways; the fused decoder and the reference decoder
  // must agree bit-for-bit on the same payload.
  EXPECT_EQ(fused->decompress(payload_r), reference->decompress(payload_f));
  EXPECT_EQ(fused->decompress(payload_f), reference->decompress(payload_f));
}

TEST(FusedOracle, BitIdenticalPayloadsAcrossSizes) {
  // Cover: empty, tiny, sub-block, exactly one block, block+tail, many
  // blocks (the blockwise extrema + bitmap byte paths all get exercised).
  for (std::size_t n :
       {0UL, 1UL, 7UL, 8UL, 9UL, 100UL, 4096UL, 4100UL, 70001UL}) {
    const auto data = kfac_grad(n, 0xC0FFEE + n);
    expect_bit_identical(cp::CompsoParams{}, data, 42 + n);
  }
}

TEST(FusedOracle, BitIdenticalWithoutFilter) {
  cp::CompsoParams p;
  p.use_filter = false;
  expect_bit_identical(p, kfac_grad(20000, 11), 7);
  p.use_filter = true;
  p.filter_bound = 0.0;  // second way to disable the filter
  expect_bit_identical(p, kfac_grad(20000, 12), 8);
}

TEST(FusedOracle, BitIdenticalOnEdgeInputs) {
  // All-zero buffer (abs_max == 0 early-out, no rng draws).
  expect_bit_identical(cp::CompsoParams{}, std::vector<float>(5000, 0.0F),
                       3);
  // Constant buffer (everything survives the filter).
  expect_bit_identical(cp::CompsoParams{}, std::vector<float>(5000, 1.5F),
                       4);
  // Buffer where everything but one value is filtered.
  std::vector<float> spike(5000, 1e-8F);
  spike[1234] = 100.0F;
  expect_bit_identical(cp::CompsoParams{}, spike, 5);
  // Negative extremes and denormals.
  std::vector<float> mixed = kfac_grad(9999, 6);
  mixed[0] = -3.5e4F;
  mixed[1] = 1e-40F;
  mixed[2] = -1e-40F;
  expect_bit_identical(cp::CompsoParams{}, mixed, 6);
}

TEST(FusedOracle, BitIdenticalWithEveryEncoder) {
  using compso::codec::CodecKind;
  const auto data = kfac_grad(30000, 21);
  for (CodecKind kind : compso::codec::kAllCodecKinds) {
    cp::CompsoParams p;
    p.encoder = kind;
    expect_bit_identical(p, data, 1000 + static_cast<std::uint64_t>(kind));
  }
}

TEST(FusedOracle, BitIdenticalAcrossBounds) {
  const auto data = kfac_grad(25000, 31);
  for (double eb : {1e-1, 1e-2, 4e-3, 1e-4, 1e-6}) {
    cp::CompsoParams p;
    p.filter_bound = eb;
    p.quant_bound = eb;
    expect_bit_identical(p, data, 77);
  }
}

TEST(FusedOracle, CompressIntoReusesBufferAndMatches) {
  const auto c = cp::make_compso(cp::CompsoParams{});
  cp::Bytes buf;
  std::vector<float> rec;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto data = kfac_grad(10000 + 1000 * i, i);
    ct::Rng a(i);
    ct::Rng b(i);
    c->compress_into(data, a, buf);
    EXPECT_EQ(buf, c->compress(data, b));
    c->decompress_into(buf, rec);
    EXPECT_EQ(rec, c->decompress(buf));
  }
}

TEST(FusedOracle, PathologicalBoundFallsBackToReference) {
  // A quantization bound tight enough to overflow int32 codes must route
  // make_compso to the multi-pass implementation (and still roundtrip).
  cp::CompsoParams p;
  p.quant_bound = 1e-12;
  p.filter_bound = 0.0;
  const auto c = cp::make_compso(p);
  EXPECT_EQ(c->name(), "COMPSO");
  std::vector<float> data = {1.0F, -0.5F, 0.25F, 0.0F};
  ct::Rng rng(9);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(rec[i], data[i], 1e-6);
  }
}

// ---- error feedback as one fused pass ----

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// COMPSO's fused compress_feedback_into under the current pass variant
/// against the decode arithmetic: the multi-pass reference compressor's
/// default compress_feedback_into materializes c = g + e, compresses it
/// and writes c − decompress_into(payload). Payload bytes, e' and the rng
/// stream after the call must all match bit for bit; plain compress_into
/// of g (the same pass without a residual) must match the reference too.
void expect_feedback_matches(const cp::CompsoParams& p,
                             const std::vector<float>& g,
                             const std::vector<float>& e, std::uint64_t seed,
                             const std::string& what) {
  const auto fused = cp::make_compso(p);
  const auto reference = cp::make_compso_reference(p);
  ct::Rng a(seed);
  ct::Rng b(seed);
  cp::Bytes out = {1, 2, 3};  // stale content must be replaced
  std::vector<float> res(g.size(), 123.0F);
  fused->compress_feedback_into(g, e, a, out, res);
  cp::Bytes ref_out;
  std::vector<float> ref_res(g.size());
  reference->compress_feedback_into(g, e, b, ref_out, ref_res);
  EXPECT_EQ(out, ref_out) << what;
  EXPECT_TRUE(same_bits(res, ref_res)) << what;
  EXPECT_EQ(a(), b()) << what << ": rng streams diverged";

  ct::Rng pa(seed + 1);
  ct::Rng pb(seed + 1);
  cp::Bytes plain;
  fused->compress_into(g, pa, plain);
  EXPECT_EQ(plain, reference->compress(g, pb)) << what << " (no residual)";
  EXPECT_EQ(pa(), pb()) << what << ": plain rng streams diverged";
}

TEST(Compso, FeedbackPassBitIdenticalToDecodeArithmetic) {
  const auto variants = compso::quant::fused_pass_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.back(), "scalar");
  EXPECT_THROW(compso::quant::FusedPassOverride("no-such-isa"),
               std::invalid_argument);
  const std::size_t sizes[] = {0,    1,    7,      8,      9,
                               4095, 4096, 4097, 262656, (1UL << 18) + 3};
  for (const std::string& variant : variants) {
    const compso::quant::FusedPassOverride use(variant);
    for (const std::size_t n : sizes) {
      const auto g = kfac_grad(n, 0xBEEF + n);
      std::vector<float> e = kfac_grad(n, 0xFACE + n);
      for (float& v : e) v *= 0.3F;
      const std::vector<float> zero(n, 0.0F);
      for (const bool filter : {true, false}) {
        for (const double eb : {4e-3, 2e-3, 1e-3, 5e-4}) {
          cp::CompsoParams p;
          p.use_filter = filter;
          p.filter_bound = eb;
          p.quant_bound = eb;
          const std::string what = variant + " n=" + std::to_string(n) +
                                   " filter=" + std::to_string(filter) +
                                   " eb=" + std::to_string(eb);
          expect_feedback_matches(p, g, zero, n + 5, what + " e=0");
          expect_feedback_matches(p, g, e, n + 6, what + " e!=0");
        }
        for (const auto kind : compso::codec::kAllCodecKinds) {
          cp::CompsoParams p;
          p.use_filter = filter;
          p.encoder = kind;
          expect_feedback_matches(p, g, e, n + 9,
                                  variant + " n=" + std::to_string(n) +
                                      " encoder=" + to_string(kind));
        }
        // All-zero g + e, with a zero and a non-zero residual.
        cp::CompsoParams p;
        p.use_filter = filter;
        std::vector<float> minus_e(e);
        for (float& v : minus_e) v = -v;
        const std::string what = variant + " all-zero n=" +
                                 std::to_string(n) +
                                 " filter=" + std::to_string(filter);
        expect_feedback_matches(p, zero, zero, n + 7, what + " e=0");
        expect_feedback_matches(p, minus_e, e, n + 8, what + " e!=0");
      }
    }
  }
}

TEST(Compso, FeedbackPassThrowsWhatDecompressThrows) {
  // Inf in g + e makes the quantization step non-finite: the payload is
  // undecodable, and the fused feedback pass must fail with the same
  // typed error instead of returning a garbage residual. Here g + e
  // overflows from two finite inputs.
  auto g = kfac_grad(5000, 17);
  std::vector<float> e(g.size(), 0.0F);
  g[321] = 3.0e38F;
  e[321] = 3.0e38F;
  std::vector<float> c(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) c[i] = g[i] + e[i];
  for (const std::string& variant : compso::quant::fused_pass_variants()) {
    const compso::quant::FusedPassOverride use(variant);
    for (const bool filter : {true, false}) {
      cp::CompsoParams p;
      p.use_filter = filter;
      const auto comp = cp::make_compso(p);
      ct::Rng a(3);
      ct::Rng b(3);
      cp::Bytes payload;
      comp->compress_into(c, a, payload);
      std::string decode_error;
      try {
        (void)comp->decompress(payload);
      } catch (const compso::PayloadError& err) {
        decode_error = err.what();
      }
      ASSERT_FALSE(decode_error.empty()) << "decode accepted a non-finite step";
      cp::Bytes out;
      std::vector<float> res(g.size());
      try {
        comp->compress_feedback_into(g, e, b, out, res);
        ADD_FAILURE() << variant << ": feedback accepted a non-finite step";
      } catch (const compso::PayloadError& err) {
        EXPECT_EQ(std::string(err.what()), decode_error) << variant;
      }
    }
  }
}

// ---- parameter validation ----

TEST(Validation, BadParamsThrow) {
  EXPECT_THROW((void)cp::make_cocktail(0.0, 8), std::invalid_argument);
  EXPECT_THROW((void)cp::make_cocktail(1.5, 8), std::invalid_argument);
  EXPECT_THROW((void)cp::make_topk(0.0), std::invalid_argument);
  EXPECT_THROW((void)cp::make_sz(0.0), std::invalid_argument);
  cp::CompsoParams p;
  p.quant_bound = 0.0;
  EXPECT_THROW((void)cp::make_compso(p), std::invalid_argument);
}

}  // namespace
