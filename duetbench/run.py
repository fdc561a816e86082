#!/usr/bin/env python3
"""Builds and runs the duet benchmark from a checkout of the repository.

    python3 duetbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 duetbench/run.py --self-test

Run it from the root of the checkout. It builds duetbench/ (and the duet
library from src/) with CMake into $CARGO_TARGET_DIR or .bench_build/, runs
one workload, and prints the result as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. Everything it writes stays
inside the checkout; the run's data directory is removed on every exit path.
--self-test runs every workload briefly, traced and untraced, and checks the
result lines (a traced run checks its own span tree) and the client's echo
oracle.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170  # the per-run watchdog; a run must end within 180 s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "duetbench")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "duetbench")


def build():
    """Configures and builds; returns the binary's path or None."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(out, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, text=True, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {cmd[:2]} failed: {e}")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step {' '.join(cmd[:3])} failed")
            return None
    return os.path.join(out, "duetbench")


def run_binary(binary, args, timeout_s):
    """Runs the benchmark binary in its own process group under a watchdog.

    Returns (exit code, stdout lines); code None means the watchdog fired."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, []
    return proc.returncode, out.splitlines()


def run_workload(binary, workload, seed, seconds, trace, spans=None, timeout_s=RUN_TIMEOUT_S):
    """One run in a fresh data directory; returns (exit code, result dict)."""
    os.makedirs(".bench_run", exist_ok=True)
    data = os.path.relpath(tempfile.mkdtemp(prefix="w-", dir=".bench_run"))
    try:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "1" if trace else "0", "--dir", data]
        if spans:
            args += ["--spans", spans]
        code, lines = run_binary(binary, args, timeout_s)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if code is None:
        log(f"watchdog: {workload} did not finish within {timeout_s} s")
        return None, None
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        return code, None
    try:
        return code, json.loads(lines[-1])
    except ValueError:
        return code, None


def self_test(binary):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            log(f"self-test FAILED: {what}")

    code, lines = run_binary(binary, ["--check-oracle"], 60)
    expect(code == 0, "the echo oracle accepts intact echoes and catches corruption and remaps")

    os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            spans = os.path.join(build_dir(), "traces", f"selftest-{name}.spans") if trace else None
            code, res = run_workload(binary, name, 7, 2, trace, spans)
            tag = f"{name} trace={int(trace)}"
            expect(code == 0 and res is not None, f"{tag}: exits 0 with a result line")
            if res is None:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(res["correct"] is True, f"{tag}: correctness checks hold")
            expect(res["failed"] == 0, f"{tag}: no failed operations")
            for m in metrics:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       f"{tag}: metric {m['name']} present with unit {m['unit']}")
            if trace:
                # The traced run checks its own span tree; a bad one is a
                # failed correctness check above.
                expect(os.path.getsize(spans) > 0, f"{tag}: the spans were written")
            else:
                for m in metrics:
                    v = res["metrics"].get(m["name"], {}).get("value", 0)
                    expect(v > 0, f"{tag}: {m['name']} is non-zero")
    # The planning outputs are a function of the seed alone.
    runs = [run_workload(binary, "epoch_replan", 11, 2, False)[1] for _ in range(2)]
    if all(runs):
        for m in ("hmux_traffic_frac", "shuffled_frac", "smuxes_needed"):
            expect(runs[0]["metrics"][m]["value"] == runs[1]["metrics"][m]["value"],
                   f"{m} is bit-equal across runs of one seed")
    log("self-test " + ("passed" if not failures else f"failed ({len(failures)} checks)"))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)

    t0 = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")
    if a.self_test:
        return self_test(binary)
    if not a.workload:
        log("--workload is required")
        return 2
    spans = None
    if a.trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
        spans = os.path.join(build_dir(), "traces", f"{a.workload}-{a.seed}.spans")
    code, res = run_workload(binary, a.workload, a.seed, a.seconds, a.trace, spans)
    if res is None:
        log(f"{a.workload}: no result (exit {code})")
        return 1
    print(json.dumps(res))
    if code != 0 or not res.get("correct"):
        log(f"{a.workload}: a correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
