#!/usr/bin/env python3
"""Run one workload of the qubikos benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig4-sycamore --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds perfbench/ (and through it the
qubikos library and the serve CLI) in Release mode into .bench_build (or
$CARGO_TARGET_DIR), runs qubikos_perfbench in its own process group, checks
that its result carries exactly the metrics BENCHMARK.json lists for the
mode, and prints the result object as the last line of stdout. Build logs
and diagnostics go to stderr; result files and Chrome traces land in
.bench_out/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """git commit when available, plus a digest of the library sources."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return f"{commit}+src.{h.hexdigest()[:12]}"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "qubikos_perfbench"], cwd=ROOT, stdout=sys.stderr, check=True)
    return build_dir / "qubikos_perfbench"


def stop_group(proc):
    """Kill the benchmark's process group (the daemon included) and wait
    until every member is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def check_result(result, bench, trace):
    """Exactly the contract's keys and the metric set BENCHMARK.json
    names for this mode, with matching units."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(wanted) ^ set(got)):
        problems.append(f"metric {name} {'missing' if name in wanted else 'not in BENCHMARK.json'}")
    for name in sorted(set(wanted) & set(got)):
        if got[name].get("unit") != wanted[name]:
            problems.append(f"metric {name} unit {got[name].get('unit')} != {wanted[name]}")
    return problems


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "src" / "campaign" / "worker.hpp").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        log(f"no qubikos sources next to {HERE.name}/; run from a full checkout")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", str(HERE / "expected_digests.json"),
           "--commit", source_id(), "--out-dir", ".bench_out"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("timed out; stopping the run")
        stop_group(proc)
        return 1
    finally:
        # The run's scratch directory, left behind only if it was killed.
        shutil.rmtree(ROOT / ".bench_tmp" / f"{args.workload}-{proc.pid}", ignore_errors=True)
        stop_group(proc)

    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        log(f"no result (exit code {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    problems = check_result(result, bench, args.trace == "1")
    for p in problems:
        log(f"contract: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result, sort_keys=True), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
