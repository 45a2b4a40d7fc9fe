#!/usr/bin/env python3
"""End-to-end benchmark of wavemr: builds the library, the wavemr_serve
binary and the benchmark harness from source, runs one named workload and
prints its report. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced variant, reports the per-layer metrics and writes a Chrome
trace-event file under the build directory.

    python3 perfbench/run.py --workload exact-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10   # every workload
    python3 perfbench/run.py --selfcheck    # reduced-size run of every workload
                                            # plus the correctness gate's self-test

Exit code 0 means every output was checked and correct.
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
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    # Honour a target directory chosen by the caller, relative to the root.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the harness and wavemr_serve; returns the
    two binaries' paths. Build output goes to stderr."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench_harness"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out, "perfbench_harness"),
            os.path.join(out, "wavemr", "tools", "wavemr_serve"))


def code_identity():
    """git commit when the checkout is a repository, plus a digest of the
    sources that go into the build, so two results name what they measured."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return "%s+src:%s" % (commit or "nogit", h.hexdigest()[:12])


def run_harness(harness, args):
    """Runs the harness in its own process group (it may start a server) and
    kills the whole group if it overruns. Returns (exit code, stdout lines)."""
    # Spill files (and anything else the library writes to the temporary
    # directory) stay inside the checkout.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen([harness] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("harness timed out after %d s" % RUN_TIMEOUT_S)
        return 1, []
    finally:
        # Reap anything the harness left in its group (it stops its server).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, stdout.splitlines()


def check_result(lines, expected):
    """Parses the harness' last line and checks it reports exactly the
    expected metrics with their units. Returns (result dict or None, problems)."""
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            problems.append("missing metric %s" % name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s unit %s, expected %s" % (name, metrics[name].get("unit"), unit))
    problems += ["unexpected metric %s" % n for n in metrics if n not in expected]
    return result, problems


def run_workload(spec, harness, serve_bin, workload, seed, seconds, trace, scale, identity):
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    args = ["--workload=%s" % workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
            "--trace=%d" % trace, "--serve-bin=%s" % serve_bin, "--scale=%s" % scale,
            "--commit=%s" % identity]
    if trace:
        args.append("--trace-out=%s" % os.path.join(
            trace_dir, "%s-seed%d-%s.json" % (workload, seed, scale)))
    code, lines = run_harness(harness, args)
    for line in lines[:-1]:
        print(line)
    result, problems = check_result(lines, expected)
    if result is None:
        log("%s: %s (harness exit %d)" % (workload, "; ".join(problems), code))
        return None
    if problems:
        # A benchmark that does not report its declared metrics is broken.
        log("%s: %s" % (workload, "; ".join(problems)))
        result["correct"] = False
    if code != 0:
        result["correct"] = False
    return result


def selfcheck(spec, harness, serve_bin, identity):
    code, lines = run_harness(harness, ["--perturb-check"])
    for line in lines:
        print(line)
    ok = code == 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.time()
            result = run_workload(spec, harness, serve_bin, w["name"], 1, 2, trace, "small",
                                  identity)
            good = result is not None and result["correct"]
            ok = ok and good
            print("selfcheck %-14s trace=%d %s (%.1f s)" % (
                w["name"], trace, "ok" if good else "FAILED", time.time() - t0))
    print("selfcheck %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload != "all" and a.workload not in names:
        p.error("unknown workload %r (one of %s, or all)" % (a.workload, ", ".join(names)))
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    try:
        harness, serve_bin = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    identity = code_identity()
    if a.selfcheck:
        return selfcheck(spec, harness, serve_bin, identity)

    workloads = names if a.workload == "all" else [a.workload]
    results = {}
    for name in workloads:
        results[name] = run_workload(spec, harness, serve_bin, name, a.seed, seconds, a.trace,
                                     "full", identity)
        if results[name] is None:
            return 1
    if len(workloads) == 1:
        result = results[workloads[0]]
    else:
        # One line per workload x metric, then a combined result.
        print("\n%-14s %-34s %s" % ("workload", "metric", "value"))
        metrics = {}
        for name, r in results.items():
            for metric, m in sorted(r["metrics"].items()):
                print("%-14s %-34s %.6g %s" % (name, metric, m["value"], m["unit"]))
                metrics["%s/%s" % (name, metric)] = m
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
