#!/usr/bin/env python3
"""Layout-robust A/B of perfbench: a parent revision against the working tree.

Builds perfbench twice, from `git archive <parent>` and from the working
tree, into separate target directories, both with every function and every
non-fallthrough block aligned to 64 bytes, so that a change which only moves
code cannot move the numbers. It then runs interleaved pairs per workload
(the order alternates, parent first on even pairs) and prints, for each
end-to-end metric that BENCHMARK.json declares, the median of each side,
the parent's interquartile range, in how many pairs the change was
better, and a verdict:

    gain              the change won at least 9 of every 10 pairs and its
                      median is better than the parent's by more than the
                      parent's interquartile range;
    worse than bound  the change's median is worse than the parent's by
                      more than the metric's `bound` in BENCHMARK.json;
    unresolved        the parent's interquartile range is wider than the
                      bound, and not every change run beats every parent
                      run;
    within bound      none of these.

With --ledger it then makes 5 interleaved traced runs (`--trace 1`) per
side per workload and prints, for the call's p50, the six phase times,
the unattributed remainder and the pool tasks per operation, each side's
median and the parent's interquartile range, to show where a gain comes
from. A single traced run cannot resolve a phase change below ~20%.

    scripts/perf_ab.py --parent HEAD~1 --pairs 10 --seconds 12 \\
        --workloads serve_mixed,dgemm_rankk --ledger

Builds and raw results go under target/perf_ab/ (one JSON line per run in
results.jsonl). Needs only python3, git and cargo.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ALIGN = "-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=6"


def build(src: Path, target: Path) -> Path:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    env["RUSTFLAGS"] = (env.get("RUSTFLAGS", "") + " " + ALIGN).strip()
    manifest = src / "perfbench" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        env=env,
        check=True,
    )
    return target / "release" / "perfbench"


# What --ledger prints from each side's traced run, in Algorithm 1 order.
LEDGER = ["ozaki2.call_ms_p50", "ozaki2.scale_ms", "ozaki2.trunc_ms", "ozaki2.convert_ms",
          "ozaki2.gemm_ms", "ozaki2.mod_ms", "ozaki2.fold_ms", "ozaki2.unattributed_ms",
          "pool.tasks"]
# Traced runs per side per workload for --ledger.
LEDGER_RUNS = 5


def run(exe: Path, cwd: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    out = subprocess.run(
        [str(exe), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{exe} {workload}: exit {out.returncode}, no result line\n{out.stderr}")
    # perfbench exits 1 after its result line when a check failed; the
    # result counts those, and each table prints the count. Any other
    # nonzero exit is a broken run.
    if out.returncode != 0:
        if not r.get("failed"):
            sys.exit(f"{exe} {workload}: exit {out.returncode}\n{out.stderr}")
        print(f"{exe} {workload}: exit {out.returncode}, {r['failed']} of "
              f"{r['attempted']} checks failed", file=sys.stderr)
    return r


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(p, c, higher, bound):
    """One end-to-end metric's verdict from the paired runs (see the docs)."""
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    sign = 1 if higher else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    if 10 * wins >= 9 * len(p) and sign * (cm - pm) > q3 - q1:
        return "gain"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse than bound"
    all_better = min(c) > max(p) if higher else max(c) < min(p)
    if q3 - q1 > bound * abs(pm) and not all_better:
        return "unresolved"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--ledger", action="store_true",
                    help=f"after the pairs, {LEDGER_RUNS} interleaved traced runs per side "
                         "per workload, phase-time medians side by side")
    args = ap.parse_args()

    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"],
                               capture_output=True, text=True, check=True).stdout.strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    work = root / "target" / "perf_ab"
    parent_src = work / "parent-src"
    subprocess.run(["rm", "-rf", str(parent_src)], check=True)
    parent_src.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(root), "archive", args.parent],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent_src)], input=archive, check=True)
    sides = {
        "parent": (build(parent_src, work / "target-parent"), parent_src),
        "change": (build(root, work / "target-change"), root),
    }

    log = open(work / "results.jsonl", "w")
    for w in workloads:
        got = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                exe, cwd = sides[side]
                r = run(exe, cwd, w, args.seed, args.seconds)
                got[side].append(r)
                log.write(json.dumps({"workload": w, "side": side, "pair": i, **r}) + "\n")
                log.flush()
        print(f"\n{w}: {args.pairs} interleaved pairs of {args.seconds:g} s, seed {args.seed}")
        for side in ("parent", "change"):
            failed = sum(r["failed"] for r in got[side])
            attempted = sum(r["attempted"] for r in got[side])
            print(f"  {side:6} failed {failed} of {attempted} checks")
        print(f"  {'metric':18} {'parent':>12} {'parent IQR':>25} {'change':>12} {'delta':>8}"
              f"  better  verdict")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            p = [r["metrics"][name]["value"] for r in got["parent"]]
            c = [r["metrics"][name]["value"] for r in got["change"]]
            pm, cm = statistics.median(p), statistics.median(c)
            q1, q3 = quartiles(p)
            wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
            delta = (cm - pm) / pm * 100 if pm else 0.0
            same = " (all runs bitwise equal)" if len(set(p + c)) == 1 else ""
            print(f"  {name:18} {pm:12.6g} {q1:12.6g}..{q3:<12.6g} {cm:12.6g} {delta:+7.2f}%"
                  f"  {wins:>2}/{len(p):<3} {verdict(p, c, higher, m['bound'])}{same}")

    if args.ledger:
        for w in workloads:
            traced = {"parent": [], "change": []}
            for i in range(LEDGER_RUNS):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    exe, cwd = sides[side]
                    r = run(exe, cwd, w, args.seed, args.seconds, trace=1)
                    traced[side].append(r)
                    log.write(json.dumps({"workload": w, "side": side, "trace": 1, "run": i,
                                          **r}) + "\n")
                    log.flush()
            print(f"\n{w}: ledger, {LEDGER_RUNS} interleaved traced runs per side of "
                  f"{args.seconds:g} s, seed {args.seed}")
            for side in ("parent", "change"):
                failed = sum(r["failed"] for r in traced[side])
                attempted = sum(r["attempted"] for r in traced[side])
                print(f"  {side:6} failed {failed} of {attempted} checks")
            print(f"  {'metric':24} {'parent':>12} {'parent IQR':>25} {'change':>12} {'delta':>8}")
            for name in LEDGER:
                p = [r["metrics"][name]["value"] for r in traced["parent"]]
                c = [r["metrics"][name]["value"] for r in traced["change"]]
                pm, cm = statistics.median(p), statistics.median(c)
                q1, q3 = quartiles(p)
                delta = (cm - pm) / pm * 100 if pm else 0.0
                unit = traced["parent"][0]["metrics"][name]["unit"]
                print(f"  {name:24} {pm:12.6g} {q1:12.6g}..{q3:<12.6g} {cm:12.6g} "
                      f"{delta:+7.2f}%  {unit}")

if __name__ == "__main__":
    main()
