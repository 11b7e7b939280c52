#pragma once
// rANS (range asymmetric numeral systems) over the byte alphabet — the
// encoder the paper finds best overall (Table 2): high compression ratio
// from entropy coding plus high throughput from block-parallel decoding
// (Weissenberger & Schmidt's GPU ANS design, [54] in the paper).

#include "src/codec/codec.hpp"

namespace compso::codec {

/// Standalone rANS entropy stage (also reused by the Zstd-like codec).
/// Self-delimiting; falls back to a stored block on expansion. Coded
/// blocks carry four interleaved lane states (symbol i uses lane i & 3)
/// over one shared byte stream: [mode | 256 x u16 freq | 4 x u32 state |
/// stream].
Bytes rans_encode(ByteView input);
Bytes rans_decode(ByteView input);
/// Appends the (identical) encoded stream to `out` without a temporary.
void rans_encode_into(ByteView input, Bytes& out);
/// Replaces `out` with the decoded stream (same bytes as rans_decode),
/// reusing its capacity across calls.
void rans_decode_into(ByteView input, Bytes& out);

std::unique_ptr<Codec> make_ans_codec();

}  // namespace compso::codec
