#pragma once
// Deterministic, splittable random number generation for the whole library.
//
// All stochastic components (stochastic rounding, synthetic gradients,
// datasets, random sampling in CocktailSGD) draw from Rng so experiments are
// reproducible bit-for-bit from a seed.

#include <array>
#include <cstdint>
#include <span>

namespace compso::tensor {

/// Complete serializable state of an Rng — the xoshiro256** words plus the
/// Box-Muller cache — so a restored generator continues the exact stream
/// (checkpoint/resume must be bit-exact).
struct RngState {
  std::array<std::uint64_t, 4> s{};
  std::uint32_t cached_normal_bits = 0;  ///< float payload, bit-preserved.
  bool has_cached_normal = false;
};

/// xoshiro256** generator seeded via splitmix64. Satisfies
/// std::uniform_random_bit_generator so it plugs into <random> if needed,
/// but the common paths (uniform floats, normals) are provided directly.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value. Defined inline: this sits on the per-element
  /// critical path of stochastic rounding, where an out-of-line call per
  /// draw dominates the xoshiro arithmetic itself.
  std::uint64_t operator()() noexcept {
    const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform float in [0, 1).
  /// 24 high bits -> float in [0, 1) with full float32 mantissa coverage.
  float uniform() noexcept {
    return static_cast<float>((*this)() >> 40) * 0x1.0p-24F;
  }
  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) noexcept;
  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Standard normal via Box-Muller (cached second value).
  float normal() noexcept;
  /// Normal with the given mean / stddev.
  float normal(float mean, float stddev) noexcept;
  /// Laplace(0, b): the heavy-tailed shape of KFAC/SGD gradient values.
  /// Always finite.
  float laplace(float b) noexcept;

  /// Fill a span with standard normal values.
  void fill_normal(std::span<float> out, float mean = 0.0F,
                   float stddev = 1.0F) noexcept;
  /// Fill a span with uniform values in [lo, hi).
  void fill_uniform(std::span<float> out, float lo = 0.0F,
                    float hi = 1.0F) noexcept;

  /// Derive an independent child generator (stable for a given stream id).
  Rng split(std::uint64_t stream) const noexcept;

  /// Snapshot / restore the full generator state (checkpoint support).
  RngState save_state() const noexcept;
  void restore_state(const RngState& state) noexcept;

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  float cached_normal_ = 0.0F;
  bool has_cached_normal_ = false;
};

}  // namespace compso::tensor
