// Blocked math engine vs. naive reference throughput (DESIGN.md §11).
//
// Measures the packed-panel GEMM/syrk kernels against the retained naive
// references and at the shapes the perfbench workloads run, the
// tridiagonal-QL eigh against the Jacobi oracle (`eigh_reference`), plus
// the pool-parallel GEMM path, verifies
// blocked-vs-reference accuracy and blocked-vs-parallel bit-identity,
// prints a table, and writes BENCH_math.json (the compute side of the
// repo's perf trajectory, next to BENCH_compress.json). Usage:
//
//   micro_math_throughput [--smoke] [--threads=N] [output.json]
//                                             (default BENCH_math.json)
//
// The parallel gemm leg needs a real pool: the worker count defaults to
// the host's concurrency but is floored at 2 (overridable with
// --threads=N), and the JSON records the requested count, the effective
// pool size, and the host fingerprint (CPU model, concurrency, build type,
// git SHA) so a 1-core run is recognizable.
//
// --smoke trims repetitions and the eigh sizes for CI, but keeps the
// 512x512x512 gemm row: the run fails (exit 1) unless the blocked
// single-thread gemm beats the naive reference by the acceptance-criterion
// factor there, unless the tridiagonal-QL eigh beats the Jacobi oracle by
// its gate factor at every measured size, and unless the parallel gemm is
// bit-identical to serial.

#include "bench/bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensor/eigen.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/rng.hpp"
#include "src/tensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace compso;
namespace ct = compso::tensor;

namespace {

// Sanitizer instrumentation narrows the blocked-vs-naive gap: the naive
// loops pay a shadow check on every load and store, the blocked kernel
// only in its packers and C-tile loads and stores, since its accumulators
// live in registers. An accumulator tile kept in memory pays one on every
// multiply-add and falls to about naive speed, which the sanitized 1.0x
// gate catches. Only an uninstrumented build gives the 4x gate teeth.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif
constexpr double kMinGemm512Speedup = kSanitizedBuild ? 1.0 : 4.0;
/// The tridiagonal-QL eigh must beat the Jacobi oracle by this factor at
/// every measured size (the smallest, n = 96, is the hardest case; 160 is
/// the kfac_refresh factor size). Both sides are double loops that
/// instrumentation slows alike, so the gate holds in sanitized builds too.
constexpr double kMinEighSpeedup = 3.0;

ct::Tensor rand2(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  ct::Tensor t({rows, cols});
  ct::Rng rng(seed);
  rng.fill_uniform(t.span(), -1.0F, 1.0F);
  return t;
}

/// All wall timings flow through bench::time_best into this registry; the
/// snapshot is embedded in BENCH_math.json under "metrics".
obs::MetricsRegistry g_metrics;

template <typename Fn>
double time_best(std::string_view name, int reps, Fn&& fn) {
  return bench::time_best(g_metrics, name, reps, static_cast<Fn&&>(fn));
}

bool bitwise_equal(const ct::Tensor& a, const ct::Tensor& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

double max_rel_err(const ct::Tensor& got, const ct::Tensor& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(1.0, std::fabs(double{want[i]}));
    worst = std::max(worst, std::fabs(double{got[i]} - want[i]) / denom);
  }
  return worst;
}

struct GemmRow {
  std::size_t size;
  double naive_gflops, blocked_gflops, parallel_gflops;
  double max_rel_err;
  bool parallel_bit_identical;
};

/// Blocked single-thread throughput of one kernel at one workload shape
/// (m x n output, depth k; syrk_tn has m = n = d and k = batch rows).
struct ShapeRow {
  const char* op;
  std::size_t m, n, k;
  double blocked_gflops;
};

struct EighRow {
  std::size_t size;
  double reference_ms, ql_ms;
};

}  // namespace

int usage(const char* argv0, const char* bad) {
  std::fprintf(stderr, "unknown argument: %s\n", bad);
  std::fprintf(stderr, "usage: %s [--smoke] [--threads=N] [output.json]\n",
               argv0);
  return 1;
}

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t requested_threads = 0;  // 0 = host default.
  std::string out_path = "BENCH_math.json";
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--threads=", 0) == 0 && arg.size() > 10) {
      const std::string_view digits = arg.substr(10);
      std::size_t value = 0;
      bool ok = true;
      for (const char c : digits) {
        if (c < '0' || c > '9') {
          ok = false;
          break;
        }
        value = value * 10 + static_cast<std::size_t>(c - '0');
      }
      if (!ok || value == 0) return usage(argv[0], argv[i]);
      requested_threads = value;
    } else if (!arg.empty() && arg[0] != '-' && !have_out) {
      out_path = arg;
      have_out = true;
    } else {
      return usage(argv[0], argv[i]);
    }
  }

  const int reps = smoke ? 2 : 5;
  const std::vector<std::size_t> gemm_sizes =
      smoke ? std::vector<std::size_t>{512}
            : std::vector<std::size_t>{128, 256, 512};
  const std::vector<std::size_t> eigh_sizes =
      smoke ? std::vector<std::size_t>{96}
            : std::vector<std::size_t>{96, 160, 192, 256};

  const unsigned host_concurrency = std::thread::hardware_concurrency();
  if (requested_threads == 0) {
    requested_threads = std::max(1U, host_concurrency);
  }
  if (host_concurrency <= 1) {
    std::fprintf(stderr,
                 "WARNING: host reports %u hardware thread(s); the parallel "
                 "gemm leg timeshares one core and measures scheduler noise, "
                 "not scaling.\n",
                 host_concurrency);
  }
  // Floor at 2 so the "parallel" rows exercise an actual pool even on a
  // 1-core host (where the old hardware-concurrency default quietly ran
  // a 1-thread pool and reported a meaningless comparison).
  common::ThreadPool pool(std::max<std::size_t>(2, requested_threads));
  const std::size_t threads = pool.size();

  // --- gemm: naive reference vs blocked vs pool-parallel blocked ---
  std::printf("gemm (square, single precision)\n");
  std::printf("%6s | %12s %12s %12s | %9s | %s\n", "size", "naive GF/s",
              "blocked GF/s", "parallel GF/s", "speedup", "parallel bits");
  std::vector<GemmRow> gemm_rows;
  bool all_identical = true;
  double gemm512_speedup = 0.0;
  for (std::size_t n : gemm_sizes) {
    const auto a = rand2(n, n, 1000 + n);
    const auto b = rand2(n, n, 2000 + n);
    const double flops = 2.0 * static_cast<double>(n) * n * n;

    ct::Tensor c_ref, c_blk, c_par;
    const std::string stem = "bench.gemm" + std::to_string(n);
    const double t_naive =
        time_best(stem + ".naive", reps, [&] { ct::gemm_reference(a, b, c_ref); });
    const double t_blocked =
        time_best(stem + ".blocked", reps, [&] { ct::gemm(a, b, c_blk); });
    double t_parallel;
    {
      ct::MathPoolGuard guard(&pool);
      t_parallel =
          time_best(stem + ".parallel", reps, [&] { ct::gemm(a, b, c_par); });
    }

    GemmRow row;
    row.size = n;
    row.naive_gflops = flops / t_naive / 1e9;
    row.blocked_gflops = flops / t_blocked / 1e9;
    row.parallel_gflops = flops / t_parallel / 1e9;
    row.max_rel_err = max_rel_err(c_blk, c_ref);
    row.parallel_bit_identical = bitwise_equal(c_par, c_blk);
    gemm_rows.push_back(row);
    all_identical = all_identical && row.parallel_bit_identical;
    if (n == 512) gemm512_speedup = t_naive / t_blocked;

    std::printf("%6zu | %12.2f %12.2f %12.2f | %8.2fx | %s\n", n,
                row.naive_gflops, row.blocked_gflops, row.parallel_gflops,
                row.blocked_gflops / row.naive_gflops,
                row.parallel_bit_identical ? "identical" : "MISMATCH");
  }

  // --- syrk_tn: the KFAC covariance kernel ---
  const std::size_t syrk_n = smoke ? 192 : 256, syrk_d = 512;
  const auto sa = rand2(syrk_n, syrk_d, 3003);
  ct::Tensor s_ref, s_blk;
  const double syrk_flops =
      static_cast<double>(syrk_n) * syrk_d * (syrk_d + 1);
  const double syrk_t_naive = time_best(
      "bench.syrk.naive", reps, [&] { ct::syrk_tn_reference(sa, 0.5F, 0.0F, s_ref); });
  const double syrk_t_blocked =
      time_best("bench.syrk.blocked", reps, [&] { ct::syrk_tn(sa, 0.5F, 0.0F, s_blk); });
  const double syrk_err = max_rel_err(s_blk, s_ref);
  std::printf("\nsyrk_tn (A %zux%zu)\n", syrk_n, syrk_d);
  std::printf("  naive %.2f GF/s, blocked %.2f GF/s, speedup %.2fx\n",
              syrk_flops / syrk_t_naive / 1e9,
              syrk_flops / syrk_t_blocked / 1e9,
              syrk_t_naive / syrk_t_blocked);

  // --- blocked kernels at the perfbench workload shapes ---
  // Layer forward (gemm_nt: batch x in times out x in), weight gradient
  // (gemm_tn: out x in over the batch) and KFAC factor update (syrk_tn
  // over the batch) of sgd_compress (hidden 512), kfac_faulted (hidden
  // 128) and kfac_refresh (hidden 160). One call takes tens of
  // microseconds, so each timed rep runs a batch of calls.
  std::printf("\nblocked kernels at workload shapes\n");
  std::printf("%-8s %5s %5s %5s | %12s\n", "op", "m", "n", "k",
              "blocked GF/s");
  std::vector<ShapeRow> shape_rows;
  const auto time_shape = [&](const char* op, std::size_t m, std::size_t n,
                              std::size_t k, double flops, auto&& fn) {
    constexpr int kCalls = 20;
    const std::string name = std::string("bench.") + op + "." +
                             std::to_string(m) + "x" + std::to_string(n) +
                             "x" + std::to_string(k);
    const double t = time_best(name, reps, [&] {
                       for (int i = 0; i < kCalls; ++i) fn();
                     }) / kCalls;
    shape_rows.push_back({op, m, n, k, flops / t / 1e9});
    std::printf("%-8s %5zu %5zu %5zu | %12.2f\n", op, m, n, k,
                shape_rows.back().blocked_gflops);
  };
  ct::Tensor out;
  for (const std::size_t h : {512UL, 128UL}) {
    const auto x = rand2(64, h, 5000 + h);
    const auto w = rand2(h, h, 5100 + h);
    time_shape("gemm_nt", 64, h, h, 2.0 * 64 * h * h,
               [&] { ct::gemm_nt(x, w, out); });
  }
  {
    const auto g = rand2(64, 128, 5201);
    const auto x = rand2(64, 129, 5202);
    time_shape("gemm_tn", 128, 129, 64, 2.0 * 128 * 129 * 64,
               [&] { ct::gemm_tn(g, x, out); });
  }
  for (const std::size_t d : {129UL, 161UL}) {
    const auto x = rand2(64, d, 5300 + d);
    time_shape("syrk_tn", d, d, 64, 64.0 * d * (d + 1),
               [&] { ct::syrk_tn(x, 0.5F, 0.0F, out); });
  }

  // --- eigh: tridiagonal QL vs the two-pass Jacobi oracle ---
  std::printf("\neigh (symmetric, double precision)\n");
  std::printf("%6s | %10s %10s | %s\n", "size", "jacobi ms", "ql ms",
              "speedup");
  std::vector<EighRow> eigh_rows;
  for (std::size_t n : eigh_sizes) {
    ct::Tensor m = rand2(n, n, 4000 + n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const float avg = 0.5F * (m.at(i, j) + m.at(j, i));
        m.at(i, j) = m.at(j, i) = avg;
      }
    }
    EighRow row;
    row.size = n;
    const std::string stem = "bench.eigh" + std::to_string(n);
    row.reference_ms = 1e3 * time_best(stem + ".reference", reps,
                                       [&] { (void)ct::eigh_reference(m); });
    row.ql_ms =
        1e3 * time_best(stem + ".ql", reps, [&] { (void)ct::eigh(m); });
    eigh_rows.push_back(row);
    std::printf("%6zu | %10.2f %10.2f | %6.2fx\n", n, row.reference_ms,
                row.ql_ms, row.reference_ms / row.ql_ms);
  }

  // --- JSON ---
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_math_throughput\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"host\": %s,\n", bench::host_fingerprint_json().c_str());
  std::fprintf(f, "  \"requested_threads\": %zu,\n", requested_threads);
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemm_rows.size(); ++i) {
    const GemmRow& r = gemm_rows[i];
    std::fprintf(
        f,
        "    {\"size\": %zu, \"naive_gflops\": %.3f, \"blocked_gflops\":"
        " %.3f, \"parallel_gflops\": %.3f, \"speedup\": %.3f,\n"
        "     \"max_rel_err\": %.3e, \"parallel_bit_identical\": %s}%s\n",
        r.size, r.naive_gflops, r.blocked_gflops, r.parallel_gflops,
        r.blocked_gflops / r.naive_gflops, r.max_rel_err,
        r.parallel_bit_identical ? "true" : "false",
        i + 1 < gemm_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"syrk_tn\": {\"n\": %zu, \"d\": %zu, \"naive_gflops\": %.3f,"
      " \"blocked_gflops\": %.3f, \"speedup\": %.3f, \"max_rel_err\":"
      " %.3e},\n",
      syrk_n, syrk_d, syrk_flops / syrk_t_naive / 1e9,
      syrk_flops / syrk_t_blocked / 1e9, syrk_t_naive / syrk_t_blocked,
      syrk_err);
  std::fprintf(f, "  \"workload_shapes\": [\n");
  for (std::size_t i = 0; i < shape_rows.size(); ++i) {
    const ShapeRow& r = shape_rows[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"m\": %zu, \"n\": %zu, \"k\": %zu,"
                 " \"blocked_gflops\": %.3f}%s\n",
                 r.op, r.m, r.n, r.k, r.blocked_gflops,
                 i + 1 < shape_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"eigh\": [\n");
  for (std::size_t i = 0; i < eigh_rows.size(); ++i) {
    const EighRow& r = eigh_rows[i];
    std::fprintf(f,
                 "    {\"size\": %zu, \"reference_ms\": %.3f, \"ql_ms\":"
                 " %.3f, \"speedup\": %.3f}%s\n",
                 r.size, r.reference_ms, r.ql_ms, r.reference_ms / r.ql_ms,
                 i + 1 < eigh_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gemm512_speedup\": %.3f, \"gemm512_speedup_gate\":"
                  " %.1f, \"eigh_speedup_gate\": %.1f,\n",
               gemm512_speedup, kMinGemm512Speedup, kMinEighSpeedup);
  std::fprintf(f, "  \"metrics\": %s\n}\n", g_metrics.to_json().c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // --- self-checks (the bench doubles as a ctest perf gate) ---
  int failures = 0;
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: parallel gemm not bit-identical to serial\n");
    ++failures;
  }
  for (const GemmRow& r : gemm_rows) {
    if (!(r.max_rel_err < 1e-3)) {
      std::fprintf(stderr, "FAIL: blocked gemm rel err %.3e at %zu\n",
                   r.max_rel_err, r.size);
      ++failures;
    }
  }
  if (!(syrk_err < 1e-3)) {
    std::fprintf(stderr, "FAIL: blocked syrk rel err %.3e\n", syrk_err);
    ++failures;
  }
  for (const EighRow& r : eigh_rows) {
    if (r.reference_ms / r.ql_ms < kMinEighSpeedup) {
      std::fprintf(stderr,
                   "FAIL: tridiagonal-QL eigh %.2fx the Jacobi oracle at "
                   "n=%zu (gate %.1fx)\n",
                   r.reference_ms / r.ql_ms, r.size, kMinEighSpeedup);
      ++failures;
    }
  }
  if (gemm512_speedup < kMinGemm512Speedup) {
    std::fprintf(stderr,
                 "FAIL: blocked gemm %.2fx naive at 512^3 (gate %.1fx)\n",
                 gemm512_speedup, kMinGemm512Speedup);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
