#include "src/tensor/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

namespace compso::tensor {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

float Rng::uniform(float lo, float hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection-free-enough mapping; bias is
  // negligible for the index ranges used here (<< 2^32).
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>((*this)()) * n) >> 64);
}

float Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  float u1 = uniform();
  while (u1 <= 1e-12F) u1 = uniform();
  const float u2 = uniform();
  const float r = std::sqrt(-2.0F * std::log(u1));
  const float theta = 2.0F * std::numbers::pi_v<float> * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

float Rng::normal(float mean, float stddev) noexcept {
  return mean + stddev * normal();
}

float Rng::laplace(float b) noexcept {
  // A draw of exactly 0 would give u = -0.5 and log(0) = -inf below; redraw
  // on that one value only, so every other draw sequence is unchanged.
  float d = uniform();
  while (d == 0.0F) d = uniform();
  const float u = d - 0.5F;
  const float sign = u < 0.0F ? -1.0F : 1.0F;
  return -b * sign * std::log(1.0F - 2.0F * std::fabs(u));
}

void Rng::fill_normal(std::span<float> out, float mean,
                      float stddev) noexcept {
  for (auto& v : out) v = normal(mean, stddev);
}

void Rng::fill_uniform(std::span<float> out, float lo, float hi) noexcept {
  for (auto& v : out) v = uniform(lo, hi);
}

RngState Rng::save_state() const noexcept {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[static_cast<std::size_t>(i)] = state_[i];
  st.cached_normal_bits = std::bit_cast<std::uint32_t>(cached_normal_);
  st.has_cached_normal = has_cached_normal_;
  return st;
}

void Rng::restore_state(const RngState& state) noexcept {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[static_cast<std::size_t>(i)];
  cached_normal_ = std::bit_cast<float>(state.cached_normal_bits);
  has_cached_normal_ = state.has_cached_normal;
}

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Mix the current state with the stream id to derive a child seed.
  std::uint64_t seed = state_[0] ^ rotl(state_[3], 13) ^
                       (stream * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  return Rng(seed);
}

}  // namespace compso::tensor
