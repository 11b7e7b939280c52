// Fused vs. unfused COMPSO compressor throughput (single thread, host).
//
// Measures the fused single-pass pipeline (make_compso: blockwise extrema
// + filter/quantize/pack in one streaming pass, scratch reuse) against
// the retained multi-pass reference (make_compso_reference) and against
// error feedback over the fused pipeline (EF+COMPSO, the compressor the
// SGD training path runs) on synthetic KFAC-profile gradients, verifies
// the fused and reference payloads are bit-identical and that COMPSO's
// fused error-feedback pass gives the payload and residual of the
// decode-based default under every pass variant the host runs, prints a
// table, and writes BENCH_compress.json (for the Fig. 8
// host-throughput mapping — see EXPERIMENTS.md). Usage:
//
//   micro_compressor_throughput [--smoke] [output.json]
//                                       (default BENCH_compress.json)
//
// --smoke runs small sizes with few repetitions and gates on the two
// identities only, never on wall-clock; the exit status is nonzero when
// either identity fails at any size.

#include "bench/bench_util.hpp"
#include "src/compress/compressor.hpp"
#include "src/perf/perf_model.hpp"
#include "src/quant/fused.hpp"
#include "src/tensor/synthetic.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace compso;

namespace {

struct Row {
  std::size_t elems;
  perf::HostThroughput fused;
  perf::HostThroughput unfused;
  perf::HostThroughput ef;
  bool payloads_identical;
  bool feedback_identical;
};

double gbps(double bytes_per_s) { return bytes_per_s / 1e9; }

/// Combined one-way pipeline throughput: bytes of gradient moved through
/// compress + decompress per second (harmonic combination, the number a
/// training step actually experiences on its critical path).
double roundtrip_bytes_per_s(const perf::HostThroughput& t) {
  if (t.compress_bytes_per_s <= 0.0 || t.decompress_bytes_per_s <= 0.0) {
    return 0.0;
  }
  return 1.0 /
         (1.0 / t.compress_bytes_per_s + 1.0 / t.decompress_bytes_per_s);
}

bool payloads_match(const compress::GradientCompressor& a,
                    const compress::GradientCompressor& b,
                    std::span<const float> values, std::uint64_t seed) {
  tensor::Rng ra(seed), rb(seed);
  return a.compress(values, ra) == b.compress(values, rb);
}

/// COMPSO's fused compress_feedback_into (one pass, no decode) gives the
/// payload, residual and rng stream of the decode-based default — c
/// materialized, compress_into, then c − decompress_into — bit for bit,
/// under every pass variant this host runs. The residual fed in is the
/// one a first error-feedback step leaves.
bool feedback_matches(const compress::GradientCompressor& c,
                      std::span<const float> values, std::uint64_t seed) {
  const std::vector<float> zero(values.size(), 0.0F);
  std::vector<float> residual(values.size());
  {
    tensor::Rng rng(seed ^ 0x5EED);
    compress::Bytes payload;
    c.GradientCompressor::compress_feedback_into(values, zero, rng, payload,
                                                 residual);
  }
  for (const std::string& variant : quant::fused_pass_variants()) {
    const quant::FusedPassOverride use(variant);
    tensor::Rng ra(seed), rb(seed);
    compress::Bytes fused_payload, decode_payload;
    std::vector<float> fused_res(values.size()), decode_res(values.size());
    c.compress_feedback_into(values, residual, ra, fused_payload, fused_res);
    c.GradientCompressor::compress_feedback_into(values, residual, rb,
                                                 decode_payload, decode_res);
    if (fused_payload != decode_payload || ra() != rb() ||
        (!fused_res.empty() &&
         std::memcmp(fused_res.data(), decode_res.data(),
                     fused_res.size() * sizeof(float)) != 0)) {
      return false;
    }
  }
  return true;
}

void write_throughput(std::FILE* f, const char* name,
                      const perf::HostThroughput& t, const char* tail) {
  std::fprintf(f,
               "     \"%s\": {\"compress_gbps\": %.4f, \"decompress_gbps\":"
               " %.4f, \"roundtrip_gbps\": %.4f, \"ratio\": %.3f}%s\n",
               name, gbps(t.compress_bytes_per_s),
               gbps(t.decompress_bytes_per_s),
               gbps(roundtrip_bytes_per_s(t)), t.compression_ratio, tail);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_compress.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "usage: %s [--smoke] [output.json]\n", argv[0]);
      return 2;
    } else {
      out_path = arg;
    }
  }
  const auto fused = compress::make_compso({});
  const auto unfused = compress::make_compso_reference({});
  const auto ef = compress::make_error_feedback(compress::make_compso({}));

  // 2^16 .. 2^20 floats = 256 KiB .. 4 MiB gradients; the paper's layer
  // sizes for BERT-large/GPT-neo live in this range, and the acceptance
  // criterion reads the >= 1 MiB rows; 262,656 = 512 x 512 + 512 is the
  // sgd_compress benchmark's layer. The smoke sizes end on partial bitmap
  // bytes and partial rANS lane groups.
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1, 4097, (1UL << 14) + 3}
            : std::vector<std::size_t>{1UL << 16, 1UL << 18, 262656,
                                       1UL << 20};
  const std::size_t reps = smoke ? 2 : 12;
  constexpr std::uint64_t kSeed = 20240806;
  std::vector<Row> rows;

  std::printf(
      "%10s | %21s | %21s | %21s | %9s | %s\n"
      "%10s | %10s %10s | %10s %10s | %10s %10s | %9s |\n",
      "elems", "fused GB/s", "unfused GB/s", "EF+COMPSO GB/s", "roundtrip",
      "identities", "", "comp", "decomp", "comp", "decomp", "comp", "decomp",
      "speedup");
  std::printf(
      "-----------+-----------------------+-----------------------+----------"
      "-------------+-----------+-----------\n");

  for (std::size_t n : sizes) {
    tensor::Rng grad_rng(kSeed ^ n);
    const auto grad =
        tensor::synthetic_gradient(n, tensor::GradientProfile::kfac(),
                                   grad_rng);
    Row row;
    row.elems = n;
    row.payloads_identical = payloads_match(*fused, *unfused, grad, kSeed);
    row.feedback_identical = feedback_matches(*fused, grad, kSeed);
    row.fused = perf::measure_host_throughput(*fused, grad, kSeed, reps);
    row.unfused = perf::measure_host_throughput(*unfused, grad, kSeed, reps);
    row.ef = perf::measure_host_throughput(*ef, grad, kSeed, reps);
    rows.push_back(row);

    const double speedup =
        roundtrip_bytes_per_s(row.fused) / roundtrip_bytes_per_s(row.unfused);
    std::printf(
        "%10zu | %10.3f %10.3f | %10.3f %10.3f | %10.3f %10.3f | %8.2fx | "
        "%s\n",
        n, gbps(row.fused.compress_bytes_per_s),
        gbps(row.fused.decompress_bytes_per_s),
        gbps(row.unfused.compress_bytes_per_s),
        gbps(row.unfused.decompress_bytes_per_s),
        gbps(row.ef.compress_bytes_per_s), gbps(row.ef.decompress_bytes_per_s),
        speedup,
        row.payloads_identical && row.feedback_identical ? "identical"
                                                      : "MISMATCH");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_compressor_throughput\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"host\": %s,\n", bench::host_fingerprint_json().c_str());
  std::fprintf(f, "  \"units\": \"GB/s of FP32 gradient input\",\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\"elements\": %zu, \"input_bytes\": %zu,\n", r.elems,
                 r.fused.input_bytes);
    write_throughput(f, "fused", r.fused, ",");
    write_throughput(f, "unfused", r.unfused, ",");
    write_throughput(f, "ef_compso", r.ef, ",");
    std::fprintf(
        f,
        "     \"roundtrip_speedup\": %.3f, \"payloads_identical\": %s,"
        " \"feedback_identical\": %s}%s\n",
        roundtrip_bytes_per_s(r.fused) / roundtrip_bytes_per_s(r.unfused),
        r.payloads_identical ? "true" : "false",
        r.feedback_identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Self-check: the fused kernel is only a win if it is also exactly the
  // same compressor, and error feedback is only exact if the fused pass's
  // residual is exactly c minus what the payload decodes to.
  int status = 0;
  for (const Row& r : rows) {
    if (!r.payloads_identical) {
      std::fprintf(stderr, "FAIL: payload mismatch at %zu elements\n",
                   r.elems);
      status = 1;
    }
    if (!r.feedback_identical) {
      std::fprintf(stderr,
                   "FAIL: fused feedback pass != decode-based at %zu "
                   "elements\n",
                   r.elems);
      status = 1;
    }
  }
  return status;
}
