#!/usr/bin/env python3
"""Build and run the rankopt benchmark. Run from the root of the repository.

One run (the last line of standard output is its JSON result):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                           [--smoke] [--out DIR]

Every workload, each run in its own process, rows appended to
DIR/results.jsonl, then medians and spreads against BENCHMARK.json:
  python3 perfbench/run.py suite --out DIR [--seed S] [--runs R]
      [--vary-seed] [--trace] [--smoke]

The comparison rule between a parent's runs and a change's runs:
  python3 perfbench/run.py suite-compare PARENT.jsonl CHANGE.jsonl
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "rankbench.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # The benchmark builds the engine from this checkout's sources.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a rankopt checkout (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd + ["build", "--root", ".", "./perfbench/rankbench.exe"],
                       stdout=sys.stderr, env=env)
    if r.returncode != 0:
        die("build failed")


def pin_to_one_cpu():
    """Run the benchmark, which inherits this, on one CPU. The client, the
    server's connection threads and its worker domains hand each statement
    to one another; on two vCPUs of a shared host each hand-off could wake
    the other vCPU, and that wake-up time, not the program, set the spread
    between runs. The build, before this, uses every CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def read_rows(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    """Interquartile range over the median, quartiles as statistics.quantiles
    gives them."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / med if med else float("inf")


def exact_mismatches(rows):
    """Traced rows of one (workload, seed, seconds, smoke) must carry
    identical counters."""
    groups = {}
    for r in rows:
        if r["trace"] == 1:
            key = (r["workload"], r["seed"], r["seconds"], r["smoke"])
            groups.setdefault(key, []).append(r["exact"])
    return [k for k, ex in groups.items() if any(e != ex[0] for e in ex)]


def summarize(rows, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    by_workload = {}
    for r in rows:
        by_workload.setdefault(r["workload"], []).append(r)
    for w, rs in by_workload.items():
        print("\n%s: %d run(s), seeds %s" % (w, len(rs), sorted({r["seed"] for r in rs})))
        print("  %-36s %14s %9s %8s  %s" % ("metric", "median", "spread", "bound", ""))
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name] for r in rs]
            s = spread(vals)
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s" and s > b:
                flag = "SPREAD ABOVE BOUND"
            elif b is not None and s > b / 3:
                flag = "spread above bound/3"
            print("  %-36s %14.6g %8.2f%% %8s  %s" % (
                name, statistics.median(vals), 100 * s,
                "" if b is None else "%.0f%%" % (100 * b), flag))


def suite(argv):
    opts = {"seed": "1", "runs": "1", "out": None}
    flags = set()
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--vary-seed", "--trace", "--smoke"):
            flags.add(a[2:])
            i += 1
        elif a.startswith("--") and a[2:] in opts and i + 1 < len(argv):
            opts[a[2:]] = argv[i + 1]
            i += 2
        else:
            die("suite: unexpected argument " + a)
    if not opts["out"]:
        die("suite: --out DIR is required")
    spec = load_spec()
    seconds = "1" if "smoke" in flags else str(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    os.makedirs(opts["out"], exist_ok=True)
    results = os.path.join(opts["out"], "results.jsonl")
    before = len(read_rows(results)) if os.path.exists(results) else 0
    failed = []
    for run in range(int(opts["runs"])):
        seed = int(opts["seed"]) + (run if "vary-seed" in flags else 0)
        for w in workloads:
            cmd = [EXE, "--workload", w, "--seed", str(seed), "--seconds", seconds,
                   "--trace", "1" if "trace" in flags else "0", "--out", opts["out"]]
            if "smoke" in flags:
                cmd.append("--smoke")
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(r.stdout)
            if r.returncode != 0:
                failed.append("%s seed %d exited %d" % (w, seed, r.returncode))
    rows = read_rows(results)[before:]
    summarize(rows, spec)
    mismatched = exact_mismatches(rows)
    for k in mismatched:
        print("COUNTERS DIFFER between runs of %s seed %s seconds %s smoke %s" % k)
    for f in failed:
        print("FAILED: " + f)
    return 1 if failed or mismatched else 0


def better(a, b, direction):
    """Whether b is better than a."""
    return b < a if direction == "lower" else b > a


def suite_compare(argv):
    if len(argv) != 2:
        die("suite-compare takes PARENT.jsonl CHANGE.jsonl")
    spec = load_spec()
    parent = [r for r in read_rows(argv[0]) if r["trace"] == 0]
    change = [r for r in read_rows(argv[1]) if r["trace"] == 0]
    regressed = False
    for w in [x["name"] for x in spec["workloads"]]:
        a_rows = [r for r in parent if r["workload"] == w]
        b_rows = [r for r in change if r["workload"] == w]
        if not a_rows or not b_rows:
            continue
        pairs = min(len(a_rows), len(b_rows))
        note = "" if pairs >= 10 else "  (%d pairs: at least 10 are needed to claim a gain)" % pairs
        print("%s: %d parent run(s), %d change run(s)%s" % (w, len(a_rows), len(b_rows), note))
        for m in spec["end_to_end"]:
            name, d, bound = m["name"], m["better"], m["bound"]
            a = [r["metrics"][name] for r in a_rows]
            b = [r["metrics"][name] for r in b_rows]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = ((mb - ma) if d == "lower" else (ma - mb)) / ma
            wins = sum(better(x, y, d) for x, y in zip(a, b))
            iqr_a = spread(a) * abs(ma)
            if pairs >= 10 and wins >= 0.9 * pairs and better(ma, mb, d) and abs(mb - ma) > iqr_a:
                verdict = "gain"
            elif worse > bound:
                verdict = "REGRESSION"
                regressed = True
            elif max(spread(a), spread(b)) > bound and not (
                    all(better(x, y, d) for x in a for y in b)):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print("  %-18s parent %12.6g  change %12.6g  worse by %+7.2f%% (bound %.0f%%)"
                  "  wins %d/%d  %s" % (name, ma, mb, 100 * worse, 100 * bound,
                                        wins, pairs, verdict))
    return 1 if regressed else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "suite-compare":
        sys.exit(suite_compare(argv[1:]))
    build()
    pin_to_one_cpu()
    if argv and argv[0] == "suite":
        sys.exit(suite(argv[1:]))
    sys.exit(subprocess.run([EXE] + argv).returncode)


if __name__ == "__main__":
    main()
