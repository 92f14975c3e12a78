#!/usr/bin/env python3
"""Build and run the perfbench benchmark, or compare two result files.

Run, from the repository root:

    python3 perfbench/run.py --workload paper-grid|synth-precise \\
        --seed N --seconds S --trace 0|1 [--out FILE]

builds the benchmark (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs it and passes its output through: a full-report
JSON line, then the result line. `--out FILE` appends the full report to
FILE (JSON lines). A traced run writes its spans to
`$CARGO_TARGET_DIR/perfbench-spans-<workload>.json`.

Compare:

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

prints, per workload and end-to-end metric, the change of the median
against the metric's bound in BENCHMARK.json. A metric whose run-to-run
spread (quartile distance over median: across runs when a file holds
several, else across one run's repetitions) exceeds its bound is
"unresolved". Exits 1 if any run in NEW failed a check, any resolved
metric got worse by more than its bound, or a simulated-output digest
changed for the same workload and seed.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(argv):
    out = None
    if "--out" in argv:
        i = argv.index("--out")
        out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1] == "1" and "--workload" in args:
        workload = args[args.index("--workload") + 1]
        args += ["--spans", os.path.join(target, f"perfbench-spans-{workload}.json")]
    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if out and proc.returncode == 0 and len(lines) >= 2:
        with open(out, "a", encoding="utf-8") as f:
            f.write(lines[-2] + "\n")
    return proc.returncode


def spread(values):
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def read(path):
    """Every full report in `path`."""
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def untraced(reports):
    """The untraced reports, grouped by workload."""
    groups = {}
    for r in reports:
        if r.get("trace") == 0:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def side(reports, name):
    """(median, spread) of one metric over a file's runs of a workload."""
    values = [r["end_to_end"][name]["value"] for r in reports]
    if len(values) == 1:
        return values[0], spread(reports[0]["end_to_end"][name]["samples"])
    return statistics.median(values), spread(values)


def compare(old_path, new_path):
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    new_reports = read(new_path)
    old, new = untraced(read(old_path)), untraced(new_reports)
    bad = False
    for r in new_reports:
        if r["failures"]:
            bad = True
            print(f"{r['workload']:14} seed {r['seed']}: FAILED "
                  f"{len(r['failures'])} of {r['attempted']} checks, "
                  f"first: {r['failures'][0]}")
    print(f"{'workload':14} {'metric':15} {'old':>12} {'new':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for workload in sorted(set(old) & set(new)):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            (o, so), (n, sn) = side(old[workload], name), side(new[workload], name)
            change = (n - o) / o if o else 0.0
            worse = -change if m["better"] == "higher" else change
            if max(so, sn) > bound:
                verdict = f"unresolved (spread {max(so, sn):.1%})"
            elif worse > bound:
                verdict, bad = "WORSE", True
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:14} {name:15} {o:12.6g} {n:12.6g} {change:+8.2%} "
                  f"{bound:6.2f}  {verdict}")
        old_d = {r["seed"]: r["digest"] for r in old[workload]}
        new_d = {r["seed"]: r["digest"] for r in new[workload]}
        seeds = old_d.keys() & new_d.keys()
        changed = sorted(s for s in seeds if old_d[s] != new_d[s])
        if changed:
            bad = True
            print(f"{workload:14} digest CHANGED for seeds {changed}")
        else:
            print(f"{workload:14} digest identical on {len(seeds)} shared seed(s)")
    return 1 if bad else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
