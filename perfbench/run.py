#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the perfbench
binary (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or
.bench_build, runs the workload in one child process, echoes the child's
provenance, note and metric lines, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. `metrics` holds the
end_to_end metrics of BENCHMARK.json with --trace 0 and its per_layer metrics
with --trace 1 (0 for a layer the workload does not run).

A child that dies (signal or non-zero exit) or hangs (no exit within
min(165, max(60, 5 x seconds)) s; it is killed, and the cap keeps the whole
run inside 180 s) is an aborted run: every operation it attempted counts as
failed, the metrics are those of its last `partial` line (measured up to the
abort), `correct` is that line's (whether every check it had completed
passed; false when it printed none, since then no check ran), and the abort
reason is printed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench_build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench", "-j4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail("build failed (%s)" % " ".join(cmd[:2]), 3)
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """sha256 over the sources the binary builds (the checkout is not always a
    git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def abort_reason(rc, stderr):
    if rc < 0:
        try:
            what = signal.Signals(-rc).name
        except ValueError:
            what = "signal %d" % -rc
    else:
        what = "exit code %d" % rc
    last = [line for line in stderr.splitlines() if line.strip()]
    return what + (": " + last[-1].strip() if last else "")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("no BENCHMARK.json at the checkout root", 2)
    with open(bench_path) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    exe = build(build_dir())
    print("provenance git_sha=%s source_sha256=%s" % (git_sha(), source_digest()),
          flush=True)

    cmd = [exe, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    timeout_s = min(165, max(60, 5 * args.seconds))
    started = time.monotonic()
    hung = False
    try:
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=timeout_s)
        stdout, stderr, rc = child.stdout, child.stderr, child.returncode
    except subprocess.TimeoutExpired as e:  # the child is killed and reaped
        hung = True
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        stderr, rc = "", None
    elapsed = time.monotonic() - started
    if rc == 2 and "usage:" in stderr:
        fail(stderr.strip(), 2)

    result = partial = None
    attempted = 0
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.startswith("partial "):
            partial = json.loads(line[len("partial "):])
        elif line.startswith("progress "):
            attempted = int(line.split()[1].split("=")[1])
        else:
            print(line)

    notes = []
    if hung or rc != 0 or result is None:
        reason = ("hung: killed after %d s" % timeout_s) if hung else abort_reason(rc, stderr)
        print("aborted 1 after %.1f s: %s" % (elapsed, reason))
        if partial is not None:
            attempted = max(attempted, partial["attempted"])
        attempted = max(attempted, 1)
        correct = partial["correct"] if partial is not None else False
        failed = attempted
        have = partial["metrics"] if partial is not None else {}
    else:
        print("aborted 0 after %.1f s" % elapsed)
        correct, attempted, failed = result["correct"], result["attempted"], result["failed"]
        have = result["metrics"]

    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = have.get(name)
        if got is None:
            # A layer this workload does not run reads 0. An end-to-end
            # metric is missing only when the run aborted before measuring it.
            if not args.trace and result is not None:
                correct = False
                notes.append("end-to-end metric %s missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            correct = False
            notes.append("%s: unit %s, BENCHMARK.json says %s" % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}
    for n in notes:
        print("check " + n)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
