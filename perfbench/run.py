#!/usr/bin/env python3
"""Query benchmark for the PDX reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload ivf-ads-d768 --seed 1 --seconds 10 --trace 0

Workloads: ivf-ads-d768, ivf-bond-d128, spark-bond-d128 (or `all`, which runs
the three in one JVM). `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics; see perfbench/README.md for what each one means.

The first run builds the repository's sources together with the harness in
perfbench/src (an sbt build of its own, perfbench/build.sbt); later runs reuse
that build while the sources are unchanged. Human-readable output and the
build log go to stderr; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Each run also writes a results
file (host, noise, sample counts, seed) and, when traced, its spans under
perfbench/target/results.
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
SOURCES = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "build.stamp")
RESULTS = os.path.join(TARGET, "results")
WORKLOADS = ["ivf-ads-d768", "ivf-bond-d128", "spark-bond-d128"]

# A run may take at most this long once the program is built.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 720

JVM_FLAGS = [
    # A fixed-size heap: no heap resizing during a run.
    "-Xms2g", "-Xmx2g",
    "-XX:-UsePerfData",
    "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
    "-Dspark.driver.host=127.0.0.1",
    "-Dspark.ui.enabled=false",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in [
    "java.lang", "java.lang.invoke", "java.io", "java.net", "java.nio", "java.util",
    "java.util.concurrent", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar"]]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every input of the build, so a changed source rebuilds."""
    h = hashlib.sha256()
    inputs = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (SOURCES, os.path.join(HERE, "src")):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for path in inputs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_child(cmd, cwd, timeout, stdout, env=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == stamp:
                return
    log("building (sbt, first run only) ...")
    t0 = time.time()
    code, _ = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                        HERE, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0 or not os.path.exists(CLASSPATH):
        sys.exit("perfbench: build failed (sbt exit code %d)" % code)
    with open(STAMP, "w") as f:
        f.write(stamp)
    log("built in %.0f s" % (time.time() - t0))


def declared_metrics(trace):
    """Metric names the result line must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        sys.exit("perfbench: no program sources at %s; run from a checkout of the repository"
                 % os.path.relpath(SOURCES, os.getcwd()))

    build()
    with open(CLASSPATH) as f:
        classpath = os.pathsep.join(line.strip() for line in f if line.strip())
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java] + JVM_FLAGS + ["-Djava.io.tmpdir=" + tmp, "-cp", classpath, "perfbench.Main",
                                "--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                                "--out", RESULTS]
    # Spark's scratch space stays in the checkout (spark.local.dir), which
    # SPARK_LOCAL_DIRS would override.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    try:
        code, out = run_child(cmd, ROOT, RUN_TIMEOUT_S, subprocess.PIPE, env)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    result = lines.pop() if lines and lines[-1].startswith("{") else None
    for line in lines:
        print(line, file=sys.stderr)
    if result is None:
        sys.exit("perfbench: run failed without a result (exit code %d)" % code)
    if args.workload != "all":
        got, want = list(json.loads(result)["metrics"]), declared_metrics(args.trace)
        if sorted(got) != sorted(want):
            sys.exit("perfbench: metrics %s do not match BENCHMARK.json %s" % (got, want))
    # A failed answer check still prints its result ("correct": false), then
    # fails the command.
    print(result, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
