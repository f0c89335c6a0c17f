#!/usr/bin/env python3
"""Paired benchmark of a base revision against the working tree.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --workload spark-bond-d128 --pairs 10 --seeds 5,6,7 --base <rev>

The base revision (default HEAD, i.e. the working tree's parent before it is
committed) is exported with `git archive` into a temporary directory, so
nothing is registered in the repository's .git and an interrupted run leaves
only that directory. Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace T

once in the base tree and once in the working tree, alternating which side
runs first; seeds cycle over the pairs, run_seconds comes from
BENCHMARK.json, and T is --trace (default 0). With --trace 0 the summary
covers BENCHMARK.json's end-to-end metrics; with --trace 1 it covers its
per-layer metrics, which have no bound, so they carry no worse_than_bound
flag. A traced run backs no claim, so --trace 1 requires --out.
The summary goes to --out, by default BENCH_<workload>.json
at the repository root, the file that backs a claimed gain. A check that
claims nothing (a workload the change should leave alone, or a trial run)
passes a path outside the repository, e.g. --out /tmp/BENCH_<workload>.json,
so that it does not overwrite the committed file of an earlier claim. Per side,
the summary holds the median and quartiles of every metric it covers;
per metric, the number of pairs the change wins
(ties count for neither side) and whether the medians differ by more than
the base's interquartile range; failed/attempted operation counts; every
run's values, exit code and answer check ("correct"); the seeds, the host
and the exact command, with the base resolved to its commit so that the
file can be regenerated from it. Only pairs whose two runs both exited 0
enter the medians and the win counts, since perfbench prints its metrics
even when its answer check fails and then exits 1; the other pairs are
listed under "excluded_pairs" and on stderr. The change side is named by its
commit and, when the working tree has uncommitted changes, by a SHA-256 as
well: of `git diff HEAD`, followed by the path and contents of every
untracked file that .gitignore does not exclude.
perfbench's own log lines go to stderr, and so does a closing summary: one
line per metric with both medians, the change's pair wins and the JSON's two
flags, worse_than_bound and median_diff_exceeds_base_iqr, so that a check
that claims nothing can read its verdict from the log.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def quartiles(xs):
    """(q1, median, q3); with one sample all three are that sample."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run; returns its result line as a dict, or an error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n") if proc.stdout.strip() else []
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {
        "seed": seed,
        "exit_code": proc.returncode,
        "correct": result.get("correct") if result else None,
        "wall_s": round(time.time() - t0, 1),
        "attempted": result["attempted"] if result else 0,
        "failed": result["failed"] if result else 0,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()} if result else {},
    }


def host_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [l.split(":", 1)[1].strip() for l in f if l.startswith("model name")]
        if names:
            cpu = names[0]
    except OSError:
        pass
    # The IVF build runs on every CPU the process may use, so setup_s depends
    # on usable_cpus (the affinity mask), which can be fewer than cpus.
    return {"node": platform.node(), "cpu": cpu, "cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "jdk": jdk_version(),
            "os": platform.platform(), "python": platform.python_version()}


def jdk_version():
    """The first line of `java -version`, for the java that perfbench/run.py
    starts ($JAVA_HOME/bin/java when JAVA_HOME is set): which loops the JIT
    vectorizes, and so the kernels' speed, depends on the JDK."""
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    try:
        proc = subprocess.run([java, "-version"], capture_output=True, text=True)
    except OSError as e:
        return "unknown (%s)" % e
    lines = (proc.stderr or proc.stdout).strip().split("\n")
    return lines[0] if lines[0] else "unknown"


def both_exited_0(pair):
    """perfbench prints its metrics even when its answer check fails, then
    exits 1: a run counts only when it exited 0, and a pair when both did."""
    return pair["base"]["exit_code"] == 0 and pair["change"]["exit_code"] == 0


def summarize(metrics, runs):
    """Per-metric medians, quartiles and pair wins from the counted pairs;
    a metric with a bound also gets its worse_than_bound flag."""
    runs = [p for p in runs if both_exited_0(p)]
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(p["base"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in runs]
        pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
        if not pairs:
            out[name] = {"unit": m["unit"], "better": m["better"], "pairs": 0}
            continue
        base = quartiles([b for b, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
        losses = sum(1 for b, c in pairs if (c < b if higher else c > b))
        worse = (base[1] - change[1] if higher else change[1] - base[1]) / abs(base[1]) if base[1] else 0.0
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "pairs": len(pairs),
            "base": {"q1": base[0], "median": base[1], "q3": base[2]},
            "change": {"q1": change[0], "median": change[1], "q3": change[2]},
            "change_over_base": change[1] / base[1] if base[1] else None,
            "change_wins": wins,
            "base_wins": losses,
            "median_diff_exceeds_base_iqr": abs(change[1] - base[1]) > base[2] - base[0],
        }
        if "bound" in m:
            out[name]["bound"] = m["bound"]
            out[name]["worse_than_bound"] = worse > m["bound"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1", help="comma-separated; cycled over the pairs")
    ap.add_argument("--base", default="HEAD", help="revision the working tree is compared with")
    ap.add_argument("--out", help="summary path (default BENCH_<workload>.json at the repository root)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: summarize the per-layer metrics of traced runs (requires --out)")
    args = ap.parse_args()
    if args.pairs <= 0:
        sys.exit("bench_pairs: --pairs must be positive")
    if args.trace and not args.out:
        sys.exit("bench_pairs: --trace 1 requires --out, so that no claim file is overwritten")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        sys.exit("bench_pairs: --seeds names no seed")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("bench_pairs: unknown workload %r" % args.workload)
    seconds = spec["run_seconds"]
    base_rev = git(root, "rev-parse", args.base)
    head_rev = git(root, "rev-parse", "HEAD")
    untracked = [p for p in git(root, "ls-files", "--others", "--exclude-standard", "-z").split("\0") if p]
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no")) or bool(untracked)
    change = {"revision": head_rev, "uncommitted_changes": dirty}
    if dirty:
        digest = hashlib.sha256(subprocess.run(["git", "-C", root, "diff", "HEAD", "--binary"],
                                               check=True, capture_output=True).stdout)
        for path in untracked:
            digest.update(b"\0untracked\0" + path.encode() + b"\0")
            with open(os.path.join(root, path), "rb") as f:
                digest.update(f.read())
        change["diff_sha256"] = digest.hexdigest()

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        base_tree = os.path.join(tmp, "base")
        os.makedirs(base_tree)
        archive = subprocess.Popen(["git", "-C", root, "archive", base_rev], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_tree], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit("bench_pairs: git archive %s failed" % base_rev)
        trees = {"base": base_tree, "change": root}

        runs = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                print("[bench_pairs] pair %d/%d seed %d: %s" % (i + 1, args.pairs, seed, side),
                      file=sys.stderr, flush=True)
                pair[side] = run_once(trees[side], args.workload, seed, seconds, args.trace)
            runs.append(pair)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def side_counts(side):
        return {"runs": len(runs),
                "runs_failed": sum(1 for p in runs if p[side]["exit_code"] != 0 or not p[side]["metrics"]),
                "attempted": sum(p[side]["attempted"] for p in runs),
                "failed": sum(p[side]["failed"] for p in runs)}

    report = {
        "workload": args.workload,
        "base": {"revision": base_rev, **side_counts("base")},
        "change": {**change, **side_counts("change")},
        "seeds": seeds,
        "run_seconds": seconds,
        "host": host_info(),
        "command": "python3 tools/bench_pairs.py --workload %s --pairs %d --seeds %s --base %s%s"
                   % (args.workload, args.pairs, ",".join(map(str, seeds)), base_rev,
                      " --trace 1" if args.trace else ""),
        "run_command": "python3 perfbench/run.py --workload %s --seed S --seconds %s --trace %d"
                       % (args.workload, seconds, args.trace),
        "metrics": summarize(spec["per_layer" if args.trace else "end_to_end"], runs),
        "excluded_pairs": [{"pair": p["pair"], "seed": p["seed"],
                            **{side: {"exit_code": p[side]["exit_code"], "correct": p[side]["correct"]}
                               for side in ("base", "change")}}
                           for p in runs if not both_exited_0(p)],
        "runs": runs,
    }
    path = args.out or os.path.join(root, "BENCH_%s.json" % args.workload)
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("[bench_pairs] wrote %s" % path, file=sys.stderr)
    for p in report["excluded_pairs"]:
        print("  excluded pair %d (seed %d): %s" % (p["pair"], p["seed"], ", ".join(
            "%s exit %d correct %s" % (side, p[side]["exit_code"], p[side]["correct"])
            for side in ("base", "change"))), file=sys.stderr)
    for name, m in report["metrics"].items():
        if m.get("pairs"):
            print("  %-34s base %12.6g  change %12.6g  change wins %d/%d%s"
                  "  median_diff_exceeds_base_iqr %s"
                  % (name, m["base"]["median"], m["change"]["median"], m["change_wins"], m["pairs"],
                     "  worse_than_bound %s" % m["worse_than_bound"] if "bound" in m else "",
                     m["median_diff_exceeds_base_iqr"]),
                  file=sys.stderr)


if __name__ == "__main__":
    main()
