#pragma once
// Shared helpers for the figure/table reproduction binaries.
//
// Each bench regenerates one table or figure from the paper: it prints the
// same rows/series the paper reports, from this repository's simulators
// and trainers. Absolute numbers come from the substituted substrate (see
// DESIGN.md); the shapes are the reproduction target.

#include "src/core/perf_sim.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace compso::bench {

/// Registry-backed wall timing, replacing the benches' ad-hoc chrono
/// plumbing (DESIGN.md §12): best-of-`reps` wall time of fn(), in
/// seconds. Every repetition also lands in `registry` — a nanosecond
/// histogram observation under `name` plus a "<name>.reps" counter — so
/// the metrics snapshot each bench embeds in its BENCH_*.json records
/// exactly what was timed and how often, in one uniform schema.
template <typename Fn>
double time_best(obs::MetricsRegistry& registry, std::string_view name,
                 int reps, Fn&& fn) {
  const obs::SteadyClock clock;
  const std::string hist_name(name);
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = clock.now_ns();
    fn();
    const std::uint64_t t1 = clock.now_ns();
    const std::uint64_t dt = t1 > t0 ? t1 - t0 : 0;
    registry.observe(hist_name, dt);
    registry.add(hist_name + ".reps", 1);
    best = std::min(best, static_cast<double>(dt) * 1e-9);
  }
  return best;
}

/// Single timed run of fn(), recorded like time_best; returns seconds.
template <typename Fn>
double time_once(obs::MetricsRegistry& registry, std::string_view name,
                 Fn&& fn) {
  return time_best(registry, name, 1, static_cast<Fn&&>(fn));
}

/// Where a BENCH_*.json number came from: CPU model, hardware concurrency,
/// CMake build type and the source revision ("-dirty" when the working
/// tree differs from it), as one JSON object. Wall-clock numbers are only
/// comparable between documents whose fingerprints agree.
inline std::string host_fingerprint_json() {
  std::string sha;
  const std::string describe = std::string("git -C \"") + COMPSO_SOURCE_DIR +
                               "\" describe --always --dirty --abbrev=40"
                               " --exclude='*' 2>/dev/null";
  if (std::FILE* p = ::popen(describe.c_str(), "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    if (::pclose(p) != 0) sha.clear();
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.empty()) sha = "unknown";
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      const std::string_view l(line);
      if (l.rfind("model name", 0) != 0) continue;
      const auto colon = l.find(':');
      if (colon == std::string_view::npos) continue;
      std::string_view v = l.substr(colon + 1);
      while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
        v.remove_prefix(1);
      }
      while (!v.empty() && (v.back() == '\n' || v.back() == ' ')) {
        v.remove_suffix(1);
      }
      cpu = std::string(v);
      break;
    }
    std::fclose(f);
  }
  std::string json = "{\"cpu_model\": \"";
  for (const char c : cpu) {
    if (c == '"' || c == '\\') json += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) json += c;
  }
  json += "\", \"host_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"build_type\": \"" + COMPSO_BUILD_TYPE + "\", \"git_sha\": \"" +
          sha + "\"}";
  return json;
}

/// Per-GPU batch used for the performance experiments, matching each
/// model's practical training regime (see EXPERIMENTS.md, calibration).
inline std::size_t batch_for(const std::string& model_name) {
  if (model_name == "ResNet-50") return 4;
  return 1;  // Mask R-CNN / BERT-large / GPT-neo-125M train at batch ~1/GPU
}

inline core::PerfConfig perf_config(const nn::ModelShape& shape,
                                    std::size_t nodes,
                                    const comm::NetworkModel& net) {
  core::PerfConfig cfg;
  cfg.model = shape;
  cfg.topo = comm::Topology{.nodes = nodes, .gpus_per_node = 4};
  cfg.net = net;
  cfg.batch_per_gpu = batch_for(shape.name);
  return cfg;
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void print_rule() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace compso::bench
