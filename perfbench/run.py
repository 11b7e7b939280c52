#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

Builds the measuring program from the sources in this checkout, runs one
workload and prints a report whose last line is the result:

    python3 perfbench/run.py --workload kfac_refresh --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn. With --trace 0 the result holds every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. The full document (host fingerprint,
checks, sample counts, per-layer table) is saved under
<build dir>/results/. Exit status 0 means the run finished and every
correctness check passed.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SPEC = ROOT / "BENCHMARK.json"
# The measuring program must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return out / target


def git_sha():
    # Only ask git about this checkout itself, never a repository above it.
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: names the code under
    test where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def spec_metrics(trace):
    spec = json.loads(SPEC.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(doc):
    host = doc["host"]
    print(f"perfbench {doc['workload']} seed={doc['seed']} trace={doc['trace']}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    for check in doc["checks"]:
        print(f"check {'PASS' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    info = doc["info"]
    if doc["trace"]:
        base = doc["metrics"]["core.step_mean_ms"]["value"]
        print(f"per-layer metrics; share = value / core.step_mean_ms ({base:.3f} ms), "
              f"traced steps {info['traced_steps']:.0f}, untraced {info['untraced_steps']:.0f}, "
              f"replay iterations {info['replay_iterations']:.0f}")
        print(f"traced-vs-untraced overhead (obs.overhead_ratio): "
              f"{doc['metrics']['obs.overhead_ratio']['value']:.4f}")
    else:
        print(f"end-to-end metrics over {info['step_samples']:.0f} timed steps "
              f"({info['samples_beyond_p90']:.0f} beyond p90), median of "
              f"{info['setup_samples']:.0f} set-ups; single-worker baseline "
              f"{info['serial_baseline_samples_per_s']:.1f} samples/s")
    lines = []
    for name, m in doc["metrics"].items():
        share = f"{m['share'] * 100:9.1f}%" if "share" in m else ""
        lines.append(f"  {name:34s} {m['value']:16.6g} {m['unit']:6s} {share}")
    if doc["trace"]:
        lines.append(f"  leaf layers sum to {info['leaf_share_sum'] * 100:.1f}% of "
                     f"core.step_mean_ms; above 100% is overlap on the engine pool")
    print("\n".join(lines))
    return "\n".join(lines)


def run(args):
    started = time.monotonic()
    binary = build("perfbench")
    if binary is None:
        return 1
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.json")]
    log(f"perfbench: build ready after {time.monotonic() - started:.1f} s; running")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"perfbench: measuring program failed with status {done.returncode}")
        return 1
    doc = json.loads(lines[-1])
    doc["host"]["source_sha256"] = source_digest()
    missing = set(spec_metrics(args.trace)) ^ set(doc["metrics"])
    if missing:
        log("perfbench: output and BENCHMARK.json disagree on", sorted(missing))
        return 1
    table = report(doc)
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    (results / f"{stem}.txt").write_text(table + "\n")
    correct = doc["correct"] and done.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in doc["metrics"].items()},
    }))
    return 0 if correct else 1


def self_test():
    binary = build("perfbench_tests")
    if binary is None:
        return 1
    return subprocess.run([str(binary)], cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.workload != "all":
        return run(args)
    status = 0
    for workload in json.loads(SPEC.read_text())["workloads"]:
        args.workload = workload["name"]
        status = max(status, run(args))
    return status


if __name__ == "__main__":
    sys.exit(main())
