#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds perfbench/ (which
compiles the library from src/) into .bench_build/, runs the helper tests,
then runs one workload in a fresh scratch directory that it removes on
exit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1); BENCHMARK.json is the only list of metric
names and units. The exit code is 0 only when every output was correct.

Beyond the binary's own checks the script verifies that the exact logical
counts of a workload repeat bit for bit for one seed and one build of the
code, traced or not (kept in .bench_build/perfbench-out/exact/<binary
sha256>/), and that no source file changed during the run. The traced run
leaves its spans in .bench_build/perfbench-out/spans-<workload>.tsv.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
TMP_ROOT = os.path.join(BUILD_ROOT, "perfbench-tmp")
# Compilers and the binary put their temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
# Inputs of the build; none of them may change while a run is going.
WATCHED = ["src", "perfbench", "bench", "CMakeLists.txt", "BENCHMARK.json"]
# The binary's own limit on --seconds, and what a run may take beyond the
# measured seconds (setup repetitions, verification, teardown).
MAX_SECONDS = 3600
RUN_SLACK_S = 150


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def snapshot():
    """(path, size, mtime) of every watched file."""
    seen = {}
    for name in WATCHED:
        top = os.path.join(ROOT, name)
        if os.path.isfile(top):
            st = os.stat(top)
            seen[name] = (st.st_size, st.st_mtime_ns)
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for f in filenames:
                p = os.path.join(dirpath, f)
                st = os.stat(p)
                seen[os.path.relpath(p, ROOT)] = (st.st_size, st.st_mtime_ns)
    return seen


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=ENV)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                        "perfbench", "perfbench_selftest"],
                       check=True, stdout=sys.stderr, env=ENV)


def remove_orphaned_scratch():
    """Scratch directories of runs whose process is gone (killed runs)."""
    if not os.path.isdir(TMP_ROOT):
        return
    for d in os.listdir(TMP_ROOT):
        try:
            pid = int(d.split("-")[1])
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(TMP_ROOT, d), ignore_errors=True)
        except (IndexError, ValueError, PermissionError):
            pass


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_exact(binary, workload, seed, exact):
    """Compare the run's exact counts with the first run of this seed by
    the same binary. Counts are kept per binary hash, so a code change
    that alters logical I/O starts a fresh record instead of failing."""
    if not exact:
        return None
    d = os.path.join(OUT_DIR, "exact", file_sha256(binary))
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-seed%d.json" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            want = json.load(f)
        if want != exact:
            diff = sorted(k for k in set(want) | set(exact)
                          if want.get(k) != exact.get(k))
            return "exact counts differ from an earlier run of this seed " \
                "by the same binary: " + \
                ", ".join("%s %s != %s" % (k, exact.get(k), want.get(k))
                          for k in diff)
        return None
    fd, tmp = tempfile.mkstemp(dir=d)
    with os.fdopen(fd, "w") as f:
        json.dump(exact, f, sort_keys=True)
    os.replace(tmp, path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    if not 0 < a.seconds <= MAX_SECONDS:
        log("--seconds must be in (0, %d]" % MAX_SECONDS)
        return 2

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to perfbench/ (expected CMakeLists.txt "
            "and src/ in %s)" % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % a.workload)
        return 2
    expected = spec["per_layer" if a.trace else "end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}

    before = snapshot()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=sys.stderr, env=ENV)
    if selftest.returncode != 0:
        log("helper tests failed")
        return 1

    os.makedirs(TMP_ROOT, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    remove_orphaned_scratch()
    scratch = tempfile.mkdtemp(prefix="run-%d-" % os.getpid(), dir=TMP_ROOT)
    binary = os.path.join(BUILD_DIR, "perfbench")
    timeout = a.seconds + RUN_SLACK_S
    cmd = [binary,
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--tmp", scratch, "--git-sha", git_sha()]
    if a.trace:
        cmd += ["--spans",
                os.path.join(OUT_DIR, "spans-%s.tsv" % a.workload)]
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=ENV)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            log("perfbench ran longer than %g s" % timeout)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench printed no result (exit code %d)" % proc.returncode)
        return 1

    problems = []
    if proc.returncode != 0 or not result["correct"]:
        problems.append("perfbench reported wrong or failed results")
    values = result["values"]
    unknown = sorted(set(values) - known)
    if unknown:
        problems.append("values not named in BENCHMARK.json: " +
                        ", ".join(unknown))
    metrics = {}
    for m in expected:
        name = m["name"]
        if name in values:
            v = values[name]
        elif a.trace:
            v = 0  # a layer the workload leaves idle
        else:
            problems.append("end-to-end metric %s was not reported" % name)
            continue
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("metric %s is not a finite number: %r" % (name, v))
            continue
        metrics[name] = {"value": v, "unit": m["unit"]}
    problem = check_exact(binary, a.workload, a.seed, result["exact"])
    if problem:
        problems.append(problem)
    if snapshot() != before:
        problems.append("source files changed during the run")
    for p in problems:
        log(p)

    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
