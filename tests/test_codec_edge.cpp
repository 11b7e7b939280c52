// Codec edge cases: block boundaries, degenerate alphabets, window limits,
// and exact-size bookkeeping that the broad roundtrip sweep can miss.

#include "src/codec/ans.hpp"
#include "src/codec/codec.hpp"
#include "src/codec/huffman.hpp"
#include "src/codec/lz77.hpp"
#include "src/common/payload_error.hpp"
#include "src/tensor/rng.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

namespace cc = compso::codec;
using compso::tensor::Rng;

namespace {

TEST(BitcompEdge, BlockBoundarySizes) {
  const auto codec = cc::make_codec(cc::CodecKind::kBitcomp);
  Rng rng(1);
  for (std::size_t n : {4095UL, 4096UL, 4097UL, 8192UL, 12287UL}) {
    cc::Bytes data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(7));
    EXPECT_EQ(codec->decode(codec->encode(data)), data) << n;
  }
}

TEST(BitcompEdge, PerBlockRangesAreExploited) {
  // Two blocks with different tight ranges must both pack narrow.
  cc::Bytes data;
  data.insert(data.end(), 4096, 100);  // width 0 block
  for (int i = 0; i < 4096; ++i) {
    data.push_back(static_cast<std::uint8_t>(200 + (i % 4)));  // width 2
  }
  const auto codec = cc::make_codec(cc::CodecKind::kBitcomp);
  const auto enc = codec->encode(data);
  EXPECT_LT(enc.size(), data.size() / 4);
  EXPECT_EQ(codec->decode(enc), data);
}

TEST(CascadedEdge, SingleRunCollapses) {
  const cc::Bytes data(100000, 42);
  const auto codec = cc::make_codec(cc::CodecKind::kCascaded);
  const auto enc = codec->encode(data);
  EXPECT_LT(enc.size(), 64U);
  EXPECT_EQ(codec->decode(enc), data);
}

TEST(CascadedEdge, AlternatingBytesWorstCase) {
  cc::Bytes data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 2 ? 255 : 0);
  }
  const auto codec = cc::make_codec(cc::CodecKind::kCascaded);
  // Run length 1 everywhere: stored-block fallback keeps it bounded.
  const auto enc = codec->encode(data);
  EXPECT_LE(enc.size(), data.size() + 64);
  EXPECT_EQ(codec->decode(enc), data);
}

TEST(AnsEdge, FullAlphabetUniform) {
  cc::Bytes data(256 * 64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 256);
  }
  EXPECT_EQ(cc::rans_decode(cc::rans_encode(data)), data);
}

TEST(AnsEdge, ExtremeSkew) {
  // One symbol at ~99.99%, 200 rare symbols with 1-2 occurrences: the
  // frequency normalizer must keep every present symbol >= 1 slot.
  cc::Bytes data(100000, 7);
  Rng rng(2);
  for (int s = 0; s < 200; ++s) {
    data[rng.uniform_index(data.size())] = static_cast<std::uint8_t>(s);
  }
  const auto enc = cc::rans_encode(data);
  EXPECT_LT(enc.size(), data.size() / 10);
  EXPECT_EQ(cc::rans_decode(enc), data);
}

TEST(AnsEdge, TwoSymbols) {
  Rng rng(3);
  cc::Bytes data(50000);
  for (auto& b : data) b = rng.uniform() < 0.9F ? 0 : 255;
  const auto enc = cc::rans_encode(data);
  // H(0.9) ~ 0.469 bits/byte -> ~8.5% of original + table.
  EXPECT_LT(enc.size(), data.size() / 6);
  EXPECT_EQ(cc::rans_decode(enc), data);
}

// rANS frame layout: [17-byte header][mode][256 x u16 freq][4 x u32 lane
// states][stream]. Mode 0 is stored, mode 2 the 4-lane coded block.
constexpr std::size_t kModeAt = cc::detail::kHeaderSize;
constexpr std::uint8_t kStoredMode = 0;
constexpr std::uint8_t kSingleStateMode = 1;  // the retired layout
constexpr std::size_t kStatesAt = kModeAt + 1 + 512;

/// Bytes where ~90% are symbol 0 and the rest spread over `alphabet`
/// symbols: compressible enough that rANS codes rather than stores.
cc::Bytes skewed(std::size_t n, unsigned alphabet, std::uint64_t seed) {
  Rng rng(seed);
  cc::Bytes data(n);
  for (auto& b : data) {
    b = rng.uniform() < 0.9F
            ? 0
            : static_cast<std::uint8_t>(rng.uniform_index(alphabet));
  }
  return data;
}

std::string rans_error(const cc::Bytes& frame) {
  try {
    (void)cc::rans_decode(frame);
  } catch (const compso::PayloadError& e) {
    return e.what();
  }
  return {};
}

TEST(AnsEdge, ShortLengthsRoundtrip) {
  // 0..9 symbols: empty, partial lane groups, one full group plus tails.
  Rng rng(11);
  for (std::size_t n = 0; n <= 9; ++n) {
    cc::Bytes data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(3));
    EXPECT_EQ(cc::rans_decode(cc::rans_encode(data)), data) << n;
  }
}

TEST(AnsEdge, CodedLengthsAroundLaneGroups) {
  // 4k - 1 .. 4k + 2: every lane count of the last group, in coded mode
  // (the fast decode runs out of stream and the checked tail finishes).
  for (const std::size_t base : {1024UL, 4096UL, 65536UL}) {
    for (std::size_t n = base - 1; n <= base + 2; ++n) {
      const auto data = skewed(n, 16, n);
      const auto enc = cc::rans_encode(data);
      ASSERT_NE(enc[kModeAt], kStoredMode) << n;
      EXPECT_EQ(cc::rans_decode(enc), data) << n;
    }
  }
}

TEST(AnsEdge, SingleSymbolAndFullAlphabet) {
  // One symbol owns all 4096 slots: every lane codes it in zero bits.
  const cc::Bytes one(10001, 0xA5);
  const auto enc_one = cc::rans_encode(one);
  EXPECT_NE(enc_one[kModeAt], kStoredMode);
  EXPECT_LT(enc_one.size(), kStatesAt + 16 + 8);
  EXPECT_EQ(cc::rans_decode(enc_one), one);
  // Every byte value present, still skewed enough to code.
  auto all = skewed(50000, 256, 12);
  for (int s = 0; s < 256; ++s) {
    all[static_cast<std::size_t>(s) * 7] = static_cast<std::uint8_t>(s);
  }
  const auto enc_all = cc::rans_encode(all);
  EXPECT_NE(enc_all[kModeAt], kStoredMode);
  EXPECT_EQ(cc::rans_decode(enc_all), all);
}

TEST(AnsEdge, StoredFallbackBoundsEveryFrame) {
  // Sweep the entropy across the coded/stored crossover: the threshold
  // counts the table and the four lane states, so no frame ever exceeds
  // the stored size (header + mode + raw input) that max_payload_bytes
  // relies on.
  Rng rng(13);
  bool saw_stored = false;
  bool saw_coded = false;
  for (std::size_t n : {600UL, 1500UL, 4096UL}) {
    for (int p = 0; p <= 40; ++p) {
      cc::Bytes data(n);
      for (auto& b : data) {
        b = rng.uniform() < static_cast<float>(p) / 100.0F
                ? 0
                : static_cast<std::uint8_t>(rng() & 0xFF);
      }
      const auto enc = cc::rans_encode(data);
      EXPECT_LE(enc.size(), kModeAt + 1 + n) << n << " p=" << p;
      (enc[kModeAt] == kStoredMode ? saw_stored : saw_coded) = true;
      EXPECT_EQ(cc::rans_decode(enc), data) << n << " p=" << p;
    }
  }
  EXPECT_TRUE(saw_stored);
  EXPECT_TRUE(saw_coded);
}

TEST(AnsEdge, SingleStateFrameIsRejected) {
  // The retired layout: mode 1, one u32 state after the table. It must
  // fail typed, not be decoded by a second code path.
  auto frame = cc::rans_encode(skewed(5000, 16, 14));
  ASSERT_NE(frame[kModeAt], kStoredMode);
  frame[kModeAt] = kSingleStateMode;
  frame.erase(frame.begin() + kStatesAt + 4, frame.begin() + kStatesAt + 16);
  cc::detail::seal_frame(frame);
  EXPECT_EQ(rans_error(frame), "rans: unknown block mode");
}

TEST(AnsEdge, TruncatedStreamTailIsTypedError) {
  // Drop one or two of the last stream bytes and re-seal the CRC, so the
  // damage reaches the decoder: it must throw, never read past the end
  // (the sanitizer configs give this its teeth).
  for (const std::size_t n : {4095UL, 4096UL, 5001UL}) {
    const auto frame = cc::rans_encode(skewed(n, 16, n + 15));
    ASSERT_NE(frame[kModeAt], kStoredMode);
    for (const std::size_t cut : {1UL, 2UL}) {
      cc::Bytes damaged(frame.begin(),
                        frame.end() - static_cast<std::ptrdiff_t>(cut));
      cc::detail::seal_frame(damaged);
      EXPECT_FALSE(rans_error(damaged).empty()) << n << " cut=" << cut;
    }
    // A stray trailing byte leaves the stream unconsumed: also typed.
    cc::Bytes padded = frame;
    padded.push_back(0x5A);
    cc::detail::seal_frame(padded);
    EXPECT_FALSE(rans_error(padded).empty()) << n << " padded";
  }
}

TEST(HuffmanEdge, TwoSymbolAlphabetIsOneBit) {
  cc::Bytes data(80000);
  Rng rng(4);
  for (auto& b : data) b = rng.uniform() < 0.5F ? 'a' : 'b';
  const auto enc = cc::huffman_encode(data);
  // 1 bit/byte + 256-byte table + header.
  EXPECT_LT(enc.size(), data.size() / 7);
  EXPECT_EQ(cc::huffman_decode(enc), data);
}

TEST(HuffmanEdge, DeepTreeFromExponentialSkew) {
  // Frequencies ~2^-k build a maximally deep tree; decode must handle
  // long codes.
  cc::Bytes data;
  std::size_t count = 1;
  for (int s = 0; s < 20; ++s) {
    data.insert(data.end(), count, static_cast<std::uint8_t>(s));
    count *= 2;
  }
  Rng rng(5);
  // Shuffle so the encoder sees interleaved symbols.
  for (std::size_t i = data.size(); i > 1; --i) {
    std::swap(data[i - 1], data[rng.uniform_index(i)]);
  }
  EXPECT_EQ(cc::huffman_decode(cc::huffman_encode(data)), data);
}

TEST(Lz77Edge, MatchAtWindowLimit) {
  // A phrase recurring exactly at the window boundary must still decode
  // (whether or not the parser chose to match it).
  cc::Lz77Params params;
  params.window = 1024;
  cc::Bytes data;
  Rng rng(6);
  cc::Bytes phrase(32);
  for (auto& b : phrase) b = static_cast<std::uint8_t>(rng() & 0xFF);
  data.insert(data.end(), phrase.begin(), phrase.end());
  // Filler of exactly window - phrase size.
  for (std::size_t i = 0; i < 1024 - 32; ++i) {
    data.push_back(static_cast<std::uint8_t>(rng() & 0xFF));
  }
  data.insert(data.end(), phrase.begin(), phrase.end());
  const auto tokens = cc::lz77_parse(data, params);
  const auto s = cc::lz77_serialize(data, tokens);
  EXPECT_EQ(cc::lz77_deserialize(s.literals, s.tokens, data.size()), data);
}

TEST(Lz77Edge, MaxMatchLengthHonored) {
  cc::Lz77Params params;
  params.max_match = 64;
  const cc::Bytes data(10000, 9);  // one giant run
  const auto tokens = cc::lz77_parse(data, params);
  for (const auto& t : tokens) {
    EXPECT_LE(t.match_len, 64U);
  }
  const auto s = cc::lz77_serialize(data, tokens);
  EXPECT_EQ(cc::lz77_deserialize(s.literals, s.tokens, data.size()), data);
}

TEST(Lz77Edge, LazyParseRoundtrips) {
  cc::Lz77Params params;
  params.lazy = true;
  Rng rng(7);
  cc::Bytes data;
  cc::Bytes phrase(23);
  for (auto& b : phrase) b = static_cast<std::uint8_t>(rng.uniform_index(5));
  while (data.size() < 30000) {
    data.insert(data.end(), phrase.begin(), phrase.end());
    data.push_back(static_cast<std::uint8_t>(rng() & 0xFF));
  }
  const auto tokens = cc::lz77_parse(data, params);
  const auto s = cc::lz77_serialize(data, tokens);
  EXPECT_EQ(cc::lz77_deserialize(s.literals, s.tokens, data.size()), data);
}

TEST(StoredFallback, HeaderOverheadIsBounded) {
  // Incompressible single bytes: every codec's output stays within header
  // + mode overhead of the input, even for size 1.
  Rng rng(8);
  for (auto kind : cc::kAllCodecKinds) {
    const auto codec = cc::make_codec(kind);
    for (std::size_t n : {1UL, 2UL, 3UL}) {
      cc::Bytes data(n);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 0xFF);
      const auto enc = codec->encode(data);
      EXPECT_LE(enc.size(), n + 32) << codec->name() << " n=" << n;
      EXPECT_EQ(codec->decode(enc), data) << codec->name();
    }
  }
}

}  // namespace
