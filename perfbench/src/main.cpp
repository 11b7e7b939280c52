// perfbench: the repository benchmark's measuring program. run.py builds
// it and calls it once per run:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--git-sha <sha>]
//
// It prints one JSON document on its last stdout line: the host
// fingerprint, the correctness checks, every metric of the run's catalog
// (end-to-end with --trace 0, per-layer with --trace 1) and the sample
// counts behind them. Exit status 0 means every check passed.

#include "perfbench/src/bench.hpp"
#include "perfbench/src/catalog.hpp"
#include "src/obs/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace {

using compso::obs::append_json_double;
using compso::obs::append_json_string;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(key));
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(key));
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

void append_key(std::string& out, std::string_view key) {
  append_json_string(out, key);
  out += ':';
}

std::string to_json(const Args& args, const perfbench::RunOptions& opt,
                    const perfbench::RunResult& r) {
  std::string o = "{";
  append_key(o, "workload");
  append_json_string(o, args.workload);
  o += ',';
  append_key(o, "seed");
  o += std::to_string(args.seed);
  o += ',';
  append_key(o, "trace");
  o += args.trace ? "1" : "0";
  o += ',';
  append_key(o, "host");
  o += '{';
  append_key(o, "cpu_model");
  append_json_string(o, cpu_model());
  o += ',';
  append_key(o, "nproc");
  o += std::to_string(perfbench::host_cpus());
  o += ',';
  append_key(o, "engine_threads");
  o += std::to_string(opt.engine_threads);
  o += ',';
  append_key(o, "build_type");
  append_json_string(o, PERFBENCH_BUILD_TYPE);
  o += ',';
  append_key(o, "compiler");
  append_json_string(o, PERFBENCH_COMPILER);
  o += ',';
  append_key(o, "git_sha");
  append_json_string(o, args.git_sha);
  o += "},";
  append_key(o, "correct");
  o += r.correct() ? "true" : "false";
  o += ',';
  append_key(o, "attempted");
  o += std::to_string(r.attempted);
  o += ',';
  append_key(o, "failed");
  o += std::to_string(r.failed);
  o += ',';
  append_key(o, "checks");
  o += '[';
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    if (i != 0) o += ',';
    o += '{';
    append_key(o, "name");
    append_json_string(o, r.checks[i].name);
    o += ',';
    append_key(o, "ok");
    o += r.checks[i].ok ? "true" : "false";
    o += ',';
    append_key(o, "detail");
    append_json_string(o, r.checks[i].detail);
    o += '}';
  }
  o += "],";
  append_key(o, "metrics");
  o += '{';
  bool first = true;
  const auto emit = [&](const perfbench::MetricSpec& spec) {
    const std::string name(spec.name);
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end()) throw std::logic_error("run did not produce " + name);
    if (!first) o += ',';
    first = false;
    append_key(o, name);
    o += '{';
    append_key(o, "value");
    append_json_double(o, it->second);
    o += ',';
    append_key(o, "unit");
    append_json_string(o, spec.unit);
    if (const auto s = r.shares.find(name); s != r.shares.end()) {
      o += ',';
      append_key(o, "share");
      append_json_double(o, s->second);
    }
    o += '}';
  };
  if (args.trace) {
    for (const auto& spec : perfbench::kPerLayer) emit(spec);
  } else {
    for (const auto& spec : perfbench::kEndToEnd) emit(spec);
  }
  o += "},";
  append_key(o, "info");
  o += '{';
  first = true;
  for (const auto& [name, value] : r.info) {
    if (!first) o += ',';
    first = false;
    append_key(o, name);
    append_json_double(o, value);
  }
  o += "}}";
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    perfbench::RunOptions opt;
    opt.workload = perfbench::find_workload(args.workload);
    if (opt.workload == nullptr) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    opt.seed = args.seed;
    opt.seconds = args.seconds;
    opt.trace = args.trace;
    opt.engine_threads = perfbench::default_engine_threads();
    opt.trace_out = args.trace_out;
    const auto result = perfbench::run(opt);
    std::printf("%s\n", to_json(args, opt, result).c_str());
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
