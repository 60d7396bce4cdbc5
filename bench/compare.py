"""Sweep seeds into a result set, summarise its spread, compare two sets.

    python3 bench/compare.py sweep --out parent.jsonl
    python3 bench/compare.py spread parent.jsonl
    python3 bench/compare.py compare parent.jsonl change.jsonl

A result set is a JSON-lines file with one untraced run per line:
{"workload", "seed", "result"}, where result is the run's last stdout line.
``sweep`` runs seeds 1-10 of every workload of BENCHMARK.json in order and
appends to ``--out``.

``compare`` pairs the parent's and the change's runs of a workload by seed
and gives each end-to-end metric a verdict, using the bounds of
BENCHMARK.json:

* unresolved: fewer than 10 paired seeds, too few for the 9-of-10 rule;
* improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* unresolved: otherwise, when the parent's spread (IQR / median) is wider
  than the bound, unless every change run is better than every parent run;
* worse: the change's median is worse than the parent's by more than the
  bound;
* no worse: anything else.

It exits 1 when any verdict is "worse" or the change's fail_ratio (failed /
attempted over all its runs of a workload) is higher than the parent's:
any failure where the parent had none, or a ratio more than three binomial
standard errors above the parent's.  Runs end on time, so the same code
completes a different number of rounds and its ratio moves a little.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from run import load_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
MIN_PAIRS = len(SEEDS)


def load_set(path):
    runs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results]


def sweep(args, spec):
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            for seed in SEEDS:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
                lines = proc.stdout.strip().splitlines()
                print("\n".join(lines[:-1]), flush=True)
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
    return 0


def spread(args, spec):
    runs = load_set(args.results)
    worst = 0
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles(metric_values(results, m["name"]))
            s = (q3 - q1) / q2
            flag = ""
            if s > m["bound"]:
                flag, worst = "  OVER BOUND", 1
            elif s > m["bound"] / 3:
                flag = "  over bound/3"
            print(f"{workload:14s} {m['name']:12s} n={len(results):2d} median={q2:.6g} "
                  f"{m['unit']:5s} spread={s:.4f} bound={m['bound']}{flag}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:14s} fail_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    return worst


def verdict(parent, change, better, bound):
    def is_better(c, p):
        return c > p if better == "higher" else c < p

    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(is_better(c, p) for p, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        return "improved"
    all_better = all(is_better(c, p) for c in change for p in parent)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved"
    worse_by = (pm - cm) / pm if better == "higher" else (cm - pm) / pm
    return "worse" if worse_by > bound else "no worse"


def fail_ratio_higher(parent, change):
    pn = sum(r["attempted"] for r in parent)
    cn = sum(r["attempted"] for r in change)
    pf = sum(r["failed"] for r in parent) / pn
    cf = sum(r["failed"] for r in change) / cn
    if pf == 0:
        return cf > 0, pf, cf
    pooled = (pf * pn + cf * cn) / (pn + cn)
    se = math.sqrt(pooled * (1 - pooled) * (1 / pn + 1 / cn))
    return cf - pf > 3 * se, pf, cf


def compare(args, spec):
    parent = load_set(args.parent)
    change = load_set(args.change)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not seeds:
            print(f"{workload}: no paired runs")
            continue
        pr = [parent[workload][s] for s in seeds]
        cr = [change[workload][s] for s in seeds]
        for m in spec["end_to_end"]:
            pv, cv = metric_values(pr, m["name"]), metric_values(cr, m["name"])
            v = verdict(pv, cv, m["better"], m["bound"])
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload:14s} {m['name']:12s} {m['unit']:5s} parent {pq[1]:.6g} "
                  f"[{pq[0]:.6g}, {pq[2]:.6g}] change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
                  f"pairs={len(seeds)} {v}")
            status |= v == "worse"
        higher, pf, cf = fail_ratio_higher(pr, cr)
        print(f"{workload:14s} fail_ratio   parent {pf:.6f} change {cf:.6f}"
              f"{'  HIGHER' if higher else ''}")
        status |= higher
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description="sweep and compare benchmark result sets")
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("results")
    s = sub.add_parser("compare")
    s.add_argument("parent")
    s.add_argument("change")
    args = p.parse_args(argv)
    spec = load_spec()
    return {"sweep": sweep, "spread": spread, "compare": compare}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
