#!/usr/bin/env python3
"""Build and run the measured benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload check_inproc --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's src/ libraries plus the perfbench program)
in Release
under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to
stderr. Exits non-zero, without a result line, when the build fails,
the run fails, a verdict disagrees with the reference interpreter, or
the printed metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("check_inproc", "serve_socket", "tenant_churn")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build; return the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def commit_id():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the code the benchmark builds: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics():
    """The metric names and units BENCHMARK.json declares, per mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; return (returncode, stdout lines, stderr)."""
    scratch = build_dir() / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    # A run the verdict gate aborted leaves its socket behind.
    for stale in scratch.glob("*.sock"):
        stale.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch-dir", os.path.relpath(scratch, ROOT),
           "--commit", commit_id(), "--source-digest", source_digest()]
    if trace:
        spans = build_dir() / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_result(lines, expected):
    """Validate the result line against the declared metrics."""
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return "result is not correct"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return f"metrics differ: missing {missing}, extra {extra}, " \
               f"wrong unit {wrong}"
    return None


def smoke(binary):
    """Self-test: every metric printed with its unit; the gate trips."""
    e2e, per_layer = declared_metrics()
    for workload in WORKLOADS:
        for trace, expected in ((False, e2e), (True, per_layer)):
            code, lines, err = run_binary(binary, workload, 1, 0.5, trace)
            if code != 0:
                fail(f"smoke: {workload} trace={int(trace)} exited {code}:"
                     f"\n{err}", 1)
            problem = check_result(lines, expected)
            if problem:
                fail(f"smoke: {workload} trace={int(trace)}: {problem}", 1)
            print(f"smoke: {workload} trace={int(trace)}: "
                  f"{len(expected)} metrics ok")
        code, lines, err = run_binary(binary, workload, 1, 0.5, False,
                                      ["--corrupt-verdict"])
        if code == 0 or "verdict mismatch" not in err:
            fail(f"smoke: corrupted verdict did not trip the gate on "
                 f"{workload} (exit {code})", 1)
        if lines and lines[-1].startswith("{"):
            fail(f"smoke: {workload} printed a result despite the gate", 1)
        print(f"smoke: {workload}: corrupted verdict tripped the gate")
    print("smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test instead")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        smoke(binary)
        return
    code, lines, err = run_binary(binary, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    sys.stderr.write(err)
    if code != 0:
        for line in lines:
            if not line.startswith("{"):
                print(line)
        fail(f"{args.workload} exited with code {code}", 1)
    e2e, per_layer = declared_metrics()
    problem = check_result(lines, per_layer if args.trace else e2e)
    print("\n".join(lines[:-1]))
    if problem:
        fail(f"{args.workload}: {problem}", 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
