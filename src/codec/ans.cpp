#include "src/codec/ans.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace compso::codec {
namespace {

constexpr std::uint32_t kMagic = 0x414E5331;  // "ANS1"
constexpr std::uint8_t kModeStored = 0;
/// Coded block with four interleaved lane states. Mode 1 was the
/// single-state layout; it is rejected as an unknown mode.
constexpr std::uint8_t kModeInterleaved = 2;
constexpr std::size_t kTableBytes = 512;     // 256 u16 frequencies
constexpr std::size_t kStateBytes = 4 * 4;   // four u32 lane states
constexpr unsigned kProbBits = 12;            // frequencies sum to 4096
constexpr std::uint32_t kProbScale = 1U << kProbBits;
constexpr std::uint32_t kRansLowerBound = 1U << 23;

/// Normalizes raw counts so they sum to kProbScale with every present
/// symbol keeping frequency >= 1.
std::array<std::uint32_t, 256> normalize_freqs(
    const std::array<std::uint64_t, 256>& raw, std::uint64_t total) {
  std::array<std::uint32_t, 256> freq{};
  std::uint32_t assigned = 0;
  int last_present = -1;
  for (int s = 0; s < 256; ++s) {
    if (raw[static_cast<std::size_t>(s)] == 0) continue;
    auto f = static_cast<std::uint32_t>(
        (raw[static_cast<std::size_t>(s)] * kProbScale) / total);
    if (f == 0) f = 1;
    freq[static_cast<std::size_t>(s)] = f;
    assigned += f;
    last_present = s;
  }
  if (last_present < 0) return freq;
  // Fix the rounding drift: add any shortfall to the most frequent symbol;
  // shave any excess off the largest symbols (keeping each >= 1).
  while (assigned != kProbScale) {
    int max_sym = last_present;
    for (int s = 0; s < 256; ++s) {
      if (freq[static_cast<std::size_t>(s)] >
          freq[static_cast<std::size_t>(max_sym)]) {
        max_sym = s;
      }
    }
    auto& f = freq[static_cast<std::size_t>(max_sym)];
    if (assigned < kProbScale) {
      f += kProbScale - assigned;
      assigned = kProbScale;
    } else {
      const std::uint32_t excess = assigned - kProbScale;
      const std::uint32_t cut = std::min(excess, f - 1);
      if (cut == 0) {
        // Every symbol is already at 1: more distinct symbols than slots
        // cannot happen (256 symbols, 4096 slots).
        throw std::invalid_argument("rans: cannot normalize frequency table");
      }
      f -= cut;
      assigned -= cut;
    }
  }
  return freq;
}

}  // namespace

void rans_encode_into(ByteView input, Bytes& out) {
  const std::size_t frame_begin = out.size();
  detail::write_header(out, kMagic, input.size());
  if (input.empty()) {
    out.push_back(kModeStored);
    detail::seal_frame_at(out, frame_begin);
    return;
  }
  // Histogram in four independent lanes: per-byte increments on one array
  // serialize on store-forwarding; the split costs nothing to merge.
  std::array<std::uint64_t, 256> raw{};
  {
    std::array<std::uint64_t, 256> h1{}, h2{}, h3{};
    std::size_t i = 0;
    for (; i + 4 <= input.size(); i += 4) {
      ++raw[input[i]];
      ++h1[input[i + 1]];
      ++h2[input[i + 2]];
      ++h3[input[i + 3]];
    }
    for (; i < input.size(); ++i) ++raw[input[i]];
    for (int s = 0; s < 256; ++s) {
      raw[static_cast<std::size_t>(s)] += h1[static_cast<std::size_t>(s)] +
                                          h2[static_cast<std::size_t>(s)] +
                                          h3[static_cast<std::size_t>(s)];
    }
  }
  const auto freq = normalize_freqs(raw, input.size());
  std::array<std::uint32_t, 256> cum{};
  for (int s = 1; s < 256; ++s) {
    cum[static_cast<std::size_t>(s)] =
        cum[static_cast<std::size_t>(s - 1)] + freq[static_cast<std::size_t>(s - 1)];
  }

  // Per-symbol encode entries: the state transform
  //   state = ((state / f) << kProbBits) + (state % f) + cum
  // is computed divide-free via an exact fixed-point reciprocal
  // (Granlund-Montgomery round-up division, the standard rANS encoder
  // formulation): q = (state * rcp) >> (32 + shift) equals state / f for
  // every state below the renormalized range, so the emitted stream is
  // bit-identical to the plain-division form.
  struct EncSym {
    std::uint32_t x_max;      ///< renormalization threshold for this f.
    std::uint32_t rcp;        ///< fixed-point reciprocal of f.
    std::uint32_t bias;       ///< cum (plus the f==1 special-case offset).
    std::uint32_t cmpl_freq;  ///< kProbScale - f.
    std::uint32_t shift;
  };
  std::array<EncSym, 256> syms{};
  for (int s = 0; s < 256; ++s) {
    const std::uint32_t f = freq[static_cast<std::size_t>(s)];
    if (f == 0) continue;
    auto& e = syms[static_cast<std::size_t>(s)];
    e.x_max = ((kRansLowerBound >> kProbBits) << 8) * f;
    e.cmpl_freq = kProbScale - f;
    if (f < 2) {
      // f == 1: state / 1 == state, so fold the whole transform into
      // state + state * cmpl + bias with rcp = ~0 (q == state - 1).
      e.rcp = ~0U;
      e.shift = 0;
      e.bias = cum[static_cast<std::size_t>(s)] + kProbScale - 1;
    } else {
      std::uint32_t shift = 0;
      while (f > (1U << shift)) ++shift;
      e.rcp = static_cast<std::uint32_t>(
          ((std::uint64_t{1} << (shift + 31)) + f - 1) / f);
      e.shift = shift - 1;
      e.bias = cum[static_cast<std::size_t>(s)];
    }
  }

  // rANS encodes in reverse so the decoder emits in forward order. The
  // back-to-front buffer is inherent to the algorithm; reuse it across
  // calls so steady-state encodes stop allocating. Sized for the worst
  // case (12 bits per symbol plus each lane's flush slack) so the hot loop
  // can write through a raw pointer with no capacity checks.
  const std::size_t n = input.size();
  thread_local Bytes payload;
  if (payload.size() < n + (n >> 1) + 16) payload.resize(n + (n >> 1) + 16);
  std::uint8_t* pp = payload.data();
  std::size_t pn = 0;
  // One symbol into one lane. Renormalize: push bytes until the state fits
  // the encode range for f. state < 2^31 and x_max >= 2^19, so 0, 1, or 2
  // bytes — done branch-free: write both candidate bytes unconditionally
  // (the buffer has slack; unconsumed slots are overwritten by later
  // symbols) and advance by the exact count. The emitted byte sequence is
  // identical to the push-while-loop form, minus its data-dependent
  // mispredicts.
  const auto put = [&syms, pp, &pn](std::uint32_t& state, std::uint8_t sym) {
    const EncSym& e = syms[sym];
    std::uint32_t x = state;
    const unsigned c1 = x >= e.x_max;
    const unsigned c2 =
        static_cast<std::uint64_t>(x) >= (std::uint64_t{e.x_max} << 8);
    pp[pn] = static_cast<std::uint8_t>(x);
    pp[pn + 1] = static_cast<std::uint8_t>(x >> 8);
    const unsigned cnt = c1 + c2;
    pn += cnt;
    x >>= 8 * cnt;
    const auto q = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(x) * e.rcp) >> 32) >> e.shift;
    state = x + e.bias + q * e.cmpl_freq;
  };
  // Symbol i rides lane i & 3, and the four lane states stay in registers:
  // their state chains are independent, so four symbols are in flight per
  // iteration where one state chain would serialize on its own latency
  // (nvCOMP's interleaved-state ANS, paper §4.5). The lanes share one
  // byte stream; the decoder pulls in exactly the reverse order.
  std::uint32_t s0 = kRansLowerBound;
  std::uint32_t s1 = kRansLowerBound;
  std::uint32_t s2 = kRansLowerBound;
  std::uint32_t s3 = kRansLowerBound;
  const std::uint8_t* in = input.data();
  const std::size_t full = n & ~std::size_t{3};
  for (std::size_t i = n; i-- > full;) {  // the partial last group
    switch (i & 3) {
      case 0: put(s0, in[i]); break;
      case 1: put(s1, in[i]); break;
      default: put(s2, in[i]); break;
    }
  }
  for (std::size_t i = full; i > 0; i -= 4) {
    put(s3, in[i - 1]);
    put(s2, in[i - 2]);
    put(s1, in[i - 3]);
    put(s0, in[i - 4]);
  }
  // Coded must beat stored (mode byte + raw input) including the table
  // and the lane-state block, so the stored frame bounds every output.
  if (pn + kTableBytes + kStateBytes >= n) {
    out.push_back(kModeStored);
    out.insert(out.end(), input.begin(), input.end());
    detail::seal_frame_at(out, frame_begin);
    return;
  }
  out.push_back(kModeInterleaved);
  out.reserve(out.size() + kTableBytes + kStateBytes + pn);
  for (int s = 0; s < 256; ++s) {
    const std::uint32_t f = freq[static_cast<std::size_t>(s)];
    out.push_back(static_cast<std::uint8_t>(f & 0xFF));
    out.push_back(static_cast<std::uint8_t>((f >> 8) & 0xFF));
  }
  for (const std::uint32_t s : {s0, s1, s2, s3}) detail::append_u32(out, s);
  // Payload was produced back-to-front; store reversed so decode reads
  // forward with push-back semantics preserved. Reversed 8 bytes at a
  // time (a byte swap of each word, taken from the back) into the space
  // reserved above, not byte by byte through a reverse iterator.
  const std::size_t at = out.size();
  out.resize(at + pn);
  std::uint8_t* dst = out.data() + at;
  std::size_t k = 0;
  for (; k + 8 <= pn; k += 8) {
    std::uint64_t w;
    std::memcpy(&w, pp + pn - k - 8, sizeof(w));
    w = __builtin_bswap64(w);
    std::memcpy(dst + k, &w, sizeof(w));
  }
  for (; k < pn; ++k) dst[k] = pp[pn - 1 - k];
  detail::seal_frame_at(out, frame_begin);
}

Bytes rans_encode(ByteView input) {
  Bytes out;
  rans_encode_into(input, out);
  return out;
}

namespace {

/// Per-slot decode tables: symbol, its frequency, and the slot's offset
/// within the symbol's range (slot - cum) so the hot loop does three
/// flat array reads instead of chasing freq/cum through the symbol.
struct DecSlot {
  std::uint8_t sym;
  std::uint16_t freq;
  std::uint16_t offset;  ///< slot - cum[sym], in [0, freq).
};

}  // namespace

void rans_decode_into(ByteView input, Bytes& out) {
  const std::uint64_t size = detail::read_header(input, kMagic);
  if (input.size() < detail::kHeaderSize + 1) {
    throw PayloadError("rans: truncated stream");
  }
  const std::uint8_t mode = input[detail::kHeaderSize];
  const ByteView body = input.subspan(detail::kHeaderSize + 1);
  if (mode == kModeStored) {
    if (body.size() < size) throw PayloadError("rans: truncated stored block");
    out.assign(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(size));
    return;
  }
  if (mode != kModeInterleaved) throw PayloadError("rans: unknown block mode");
  if (body.size() < kTableBytes + kStateBytes) {
    throw PayloadError("rans: missing table");
  }
  // A coded symbol consumes at least log2(4096/4095) bits, so legitimate
  // streams never expand past ~2842x; reject bigger claims before the
  // output allocation.
  wire::check_expansion(size, body.size(), 4096, "rans");
  std::array<std::uint32_t, 256> freq{};
  for (int s = 0; s < 256; ++s) {
    freq[static_cast<std::size_t>(s)] =
        static_cast<std::uint32_t>(body[static_cast<std::size_t>(2 * s)]) |
        (static_cast<std::uint32_t>(body[static_cast<std::size_t>(2 * s + 1)])
         << 8);
  }
  // Validate the (possibly corrupted) table before building slot lookups:
  // frequencies must sum to exactly kProbScale or indexing would run past
  // the slot table.
  std::uint64_t freq_sum = 0;
  for (int s = 0; s < 256; ++s) freq_sum += freq[static_cast<std::size_t>(s)];
  if (freq_sum != kProbScale) {
    throw PayloadError("rans: corrupt frequency table");
  }
  std::array<std::uint32_t, 256> cum{};
  for (int s = 1; s < 256; ++s) {
    cum[static_cast<std::size_t>(s)] =
        cum[static_cast<std::size_t>(s - 1)] +
        freq[static_cast<std::size_t>(s - 1)];
  }
  // The table is rebuilt per stream (the freq table rides in the frame)
  // but the backing store is steady-state: one thread-local allocation.
  thread_local std::vector<DecSlot> slots;
  slots.resize(kProbScale);
  for (int s = 0; s < 256; ++s) {
    const auto f =
        static_cast<std::uint16_t>(freq[static_cast<std::size_t>(s)]);
    const std::uint32_t base = cum[static_cast<std::size_t>(s)];
    for (std::uint16_t i = 0; i < f; ++i) {
      slots[base + i] = {static_cast<std::uint8_t>(s), f, i};
    }
  }
  std::uint32_t s0 = detail::read_u32(body, kTableBytes);
  std::uint32_t s1 = detail::read_u32(body, kTableBytes + 4);
  std::uint32_t s2 = detail::read_u32(body, kTableBytes + 8);
  std::uint32_t s3 = detail::read_u32(body, kTableBytes + 12);
  out.resize(size);

  const DecSlot* const tab = slots.data();
  const std::uint8_t* const stream = body.data();
  const std::size_t stream_size = body.size();
  std::size_t pos = kTableBytes + kStateBytes;
  std::uint8_t* const dst = out.data();
  // One decoded symbol from one lane. Renormalization (0, 1, or 2 byte
  // pulls for a 12-bit scale) runs branch-free: both candidate bytes are
  // read up front and the exact count is folded into shifts. Bytes
  // consumed and states visited are identical to the pull-while-loop
  // form; callers guarantee pos + 1 < stream_size.
  const auto get_fast = [tab, stream, dst, &pos](std::uint32_t& x,
                                                 std::uint64_t i) {
    const DecSlot& d = tab[x & (kProbScale - 1)];
    dst[i] = d.sym;
    x = static_cast<std::uint32_t>(d.freq) * (x >> kProbBits) + d.offset;
    const unsigned c1 = x < kRansLowerBound;
    const unsigned c2 = x < (kRansLowerBound >> 8);
    const unsigned cnt = c1 + c2;
    const std::uint32_t b01 =
        (static_cast<std::uint32_t>(stream[pos]) << 8) | stream[pos + 1];
    x = (x << (8 * cnt)) | (b01 >> (8 * (2 - cnt)));
    pos += cnt;
  };
  // The same step with the pull-while-loop, bounds-checked per byte: runs
  // the stream's tail, where the speculative 2-byte read would walk off
  // the buffer and where underrun is detected.
  const auto get_checked = [tab, stream, stream_size, dst, &pos](
                               std::uint32_t& x, std::uint64_t i) {
    const DecSlot& d = tab[x & (kProbScale - 1)];
    dst[i] = d.sym;
    x = static_cast<std::uint32_t>(d.freq) * (x >> kProbBits) + d.offset;
    while (x < kRansLowerBound) {
      if (pos >= stream_size) throw PayloadError("rans: stream underrun");
      x = (x << 8) | stream[pos++];
    }
  };
  // Symbol i decodes from lane i & 3: four independent state -> slot ->
  // multiply chains in flight per iteration. A group pulls at most 8
  // bytes, so the fast form is safe while 8 remain.
  const std::uint64_t full = size & ~std::uint64_t{3};
  std::uint64_t i = 0;
  for (; i < full && pos + 8 <= stream_size; i += 4) {
    get_fast(s0, i);
    get_fast(s1, i + 1);
    get_fast(s2, i + 2);
    get_fast(s3, i + 3);
  }
  for (; i < full; i += 4) {
    get_checked(s0, i);
    get_checked(s1, i + 1);
    get_checked(s2, i + 2);
    get_checked(s3, i + 3);
  }
  for (; i < size; ++i) {  // the partial last group
    switch (i & 3) {
      case 0: get_checked(s0, i); break;
      case 1: get_checked(s1, i); break;
      default: get_checked(s2, i); break;
    }
  }
  // Decoding undoes every encode step, so a sound stream ends with each
  // lane back at the encoder's initial state and every byte consumed.
  if (pos != stream_size || s0 != kRansLowerBound || s1 != kRansLowerBound ||
      s2 != kRansLowerBound || s3 != kRansLowerBound) {
    throw PayloadError("rans: stream does not end at the initial states");
  }
}

Bytes rans_decode(ByteView input) {
  Bytes out;
  rans_decode_into(input, out);
  return out;
}

namespace {

class AnsCodec final : public Codec {
 public:
  std::string_view name() const noexcept override { return "ANS"; }
  Bytes encode(ByteView input) const override { return rans_encode(input); }
  Bytes decode(ByteView input) const override { return rans_decode(input); }
  void encode_into(ByteView input, Bytes& out) const override {
    rans_encode_into(input, out);
  }
  void decode_into(ByteView input, Bytes& out) const override {
    rans_decode_into(input, out);
  }
  CodecCostProfile cost_profile() const noexcept override {
    // Two streaming passes (histogram + code), fully block-parallel on GPU
    // via interleaved states ([54]); table lookups are coalesced.
    return {.encode_passes = 2.0,
            .decode_passes = 1.2,
            .parallel_fraction = 0.97,
            .flops_per_byte = 6.0,
            .bandwidth_efficiency = 0.75};
  }
};

}  // namespace

std::unique_ptr<Codec> make_ans_codec() { return std::make_unique<AnsCodec>(); }

}  // namespace compso::codec
