"""polybounce benchmark: one closed-loop client, one thread, stdlib only.

    python3 bench/run.py --workload spectrum-f64 --seed 1 --seconds 30 --trace 0

Workloads: spectrum-f64, decide-exact, trace-long (see bench/README.md).
Run from the root of a checkout; the library is imported from ``src``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs half the time untraced, replays the same ops with every public
library function wrapped in a span, checks that both passes produce the same
output digest, and reports the per-layer metrics and the tracing overhead.
Each op's output is checked by an oracle outside the timed region.

Human-readable lines go to stdout first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

SETUP_REPEATS = 21
IMPORT_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60
# the 90th percentile needs at least 10 ops beyond it
MIN_OPS = 100

# Reported times are in reference seconds: wall time scaled by how fast this
# process ran the fixed calibration loop around the measurement, to the speed
# at which the loop takes CAL_REF_S.  On a machine shared with other tenants
# the interpreter's speed drifts by a factor of two over tens of seconds; the
# loop drifts with it (see README.md).
CAL_REF_S = 0.006
CAL_EVERY_S = 0.1


@dataclass(frozen=True, slots=True)
class _CalPoint:
    x: object
    y: object


def _calibration_chunk() -> float:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(prog="calibration")
    parser.add_argument("--n", type=int)
    parser.add_argument("--start", nargs=2)
    parser.add_argument("--mode", default="x")
    parser.parse_args(["--n", "3", "--start", "1/2", "3/4"])
    table = {f"k{i}": [i, str(Fraction(i, 7)), i * 0.5] for i in range(40)}
    rows = sorted((v[2], k) for k, v in json.loads(json.dumps(table, sort_keys=True)).items())
    re.findall(r"\d+\.\d+", " ".join(f"{x:.17g}" for x, _ in rows))
    acc = Fraction(0)
    for i in range(1, 40):
        acc = (acc + Fraction(i, i + 3)) * Fraction(3, 4)
        acc = Fraction(acc.numerator % 99991, acc.denominator % 99989 + 1)
    points = [_CalPoint(math.hypot(i, 1.0), Fraction(i, 3)) for i in range(60)]
    sum(p.x for p in points) + float(sum(p.y for p in points))
    # powering an exact rotation: numerators grow by a few bits per step
    c2, s2 = Fraction(7, 25), Fraction(24, 25)
    c, s = c2, s2
    for _ in range(60):
        c, s = c * c2 - s * s2, s * c2 + c * s2
    return time.perf_counter() - t0


def calibrate() -> float:
    """Wall time of a fixed mix of the interpreter work the library does:
    argparse, JSON and string formatting, small and growing Fractions, and
    frozen dataclasses.  It is written here so that no library change moves
    it.  Three times the median of three chunks, so one preempted chunk does
    not count."""
    return 3 * statistics.median(_calibration_chunk() for _ in range(3))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def fix_hash_seed() -> None:
    """Re-execute this process with PYTHONHASHSEED=0 unless it is already
    set, so set iteration order is the same on every run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _timed_python(args) -> float:
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=inputs.ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"bench: python {' '.join(args)} exited {proc.returncode}")
    return elapsed


def measure_setup(workload: str, seed: int, workdir: str) -> float:
    """Median time of a fresh interpreter that imports polybounce.cli,
    writes this workload's tables and loads them, in reference seconds."""
    script = os.path.join(HERE, "inputs.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        wall = _timed_python([script, workload, str(seed), workdir])
        samples.append(wall * 2 * CAL_REF_S / (before + calibrate()))
    return statistics.median(samples)


def measure_import() -> float:
    """Median fresh ``import polybounce.cli`` minus a bare interpreter start."""
    path = f"import sys; sys.path.insert(0, {inputs.SRC!r})"
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(_timed_python(["-c", path]))
        full.append(_timed_python(["-c", path + "; import polybounce.cli"]))
    return statistics.median(full) - statistics.median(bare)


class Phase:
    """What one pass over the ops measured."""

    def __init__(self):
        self.rounds = []
        self.latencies = []  # wall seconds per op
        self.classes = []
        self.cal = []  # calibration loop times, taken between ops
        self.cal_before = []  # per op: index of the calibration before it
        self.busy_s = 0.0
        self.attempted = 0
        self.failures = Counter()
        self.failed = 0
        self.digest = hashlib.sha256()


def run_phase(workloads, ctx, seconds, rng=None, rounds=None, tracer=None, check=True,
              min_ops=0):
    """Execute whole rounds until ``seconds`` of op time have passed and at
    least ``min_ops`` ops ran, or replay the given ``rounds``.  Only the op
    call itself is timed; the oracle and the digest run between ops."""
    phase = Phase()
    make_round = workloads.ROUNDS[ctx.workload]
    r = 0
    op_id = 0
    phase.cal.append(calibrate())
    since_cal = 0.0
    while (r < len(rounds)) if rounds is not None else (
        r == 0 or phase.busy_s < seconds or phase.attempted < min_ops
    ):
        ops = rounds[r] if rounds is not None else make_round(rng, r, ctx.files)
        phase.rounds.append(ops)
        outs = []
        for op in ops:
            phase.attempted += 1
            failures = []
            output = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = workloads.execute(op, ctx, outs)
                else:
                    output = tracer.op(op_id, workloads.execute, op, ctx, outs)
            except Exception as exc:  # an undocumented exception is a failed op
                failures.append(f"exception:{type(exc).__name__}")
            dt = time.perf_counter() - t0
            op_id += 1
            phase.busy_s += dt
            phase.latencies.append(dt)
            phase.classes.append(op.op_class)
            phase.cal_before.append(len(phase.cal) - 1)
            if output is not None:
                phase.digest.update(workloads.digest_text(op, output).encode())
                if check:
                    try:
                        failures += workloads.check(op, output, outs, ctx)
                    except Exception as exc:  # the oracle itself broke on this output
                        failures.append(f"oracle-error:{type(exc).__name__}")
            phase.digest.update(b"\n")
            phase.failures.update(failures)
            phase.failed += bool(failures)
            outs.append(output)
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                phase.cal.append(calibrate())
                since_cal = 0.0
        r += 1
    phase.cal.append(calibrate())
    return phase


def reference_latencies(phase):
    """Op latencies in reference seconds: each op is scaled by the mean of
    the calibrations taken just before and just after it."""
    cal = phase.cal
    return [
        dt * 2 * CAL_REF_S / (cal[i] + cal[i + 1])
        for dt, i in zip(phase.latencies, phase.cal_before)
    ]


def load_spec():
    with open(os.path.join(inputs.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def with_units(values, declared):
    """{name: (value, unit)} with the units BENCHMARK.json declares; the
    names must be exactly the declared ones."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    return {name: (values[name], units[name]) for name in units}


def end_to_end(phase, setup_s):
    lat = reference_latencies(phase)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, base, traced, import_s):
    out = tracer.metrics()
    out["cli.import_s"] = import_s
    out["trace.overhead_ratio"] = (
        sum(reference_latencies(traced)) / sum(reference_latencies(base)) - 1.0
    )
    return out


def report(args, phase, metrics, extra_lines):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"ops {phase.attempted} (closed loop, 1 client, 1 thread) in {phase.busy_s:.3f} s of op time; "
        f"p90 has {phase.attempted - int(0.9 * phase.attempted)} samples beyond it"
    )
    ref = reference_latencies(phase)
    for name in sorted(set(phase.classes)):
        wall = [dt for dt, c in zip(phase.latencies, phase.classes) if c == name]
        scaled = [dt for dt, c in zip(ref, phase.classes) if c == name]
        print(f"  class {name}: n={len(wall)} median_ms wall {1e3 * statistics.median(wall):.3f} "
              f"reference {1e3 * statistics.median(scaled):.3f}")
    print(
        f"calibration loop: {len(phase.cal)} samples, median {1e3 * statistics.median(phase.cal):.3f} ms "
        f"(reference {1e3 * CAL_REF_S} ms); wall p50 {1e3 * statistics.median(phase.latencies):.3f} ms, "
        f"wall ops/s {len(phase.latencies) / phase.busy_s:.4f}"
    )
    ratio = phase.failed / phase.attempted
    print(f"fail_ratio {ratio:.6f} (1) = {phase.failed}/{phase.attempted}")
    for cls, n in sorted(phase.failures.items()):
        print(f"  failure {cls}: {n}")
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    fix_hash_seed()
    inputs.import_library()
    import workloads
    from polybounce import geom

    spec = load_spec()
    work_root = os.path.join(inputs.ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"tables-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        files = inputs.workload_tables(args.workload, args.seed, workdir)
        ctx = workloads.Context(args.workload, files, inputs.load_all(args.workload, files))
        geom.set_float_tolerance(1e-9)
        rng = inputs.workload_rng(args.workload, args.seed)
        extra = []
        if args.trace == 0:
            phase = run_phase(workloads, ctx, args.seconds, rng=rng, min_ops=MIN_OPS)
            correct = phase.failed == 0
            metrics = with_units(end_to_end(phase, setup_s), spec["end_to_end"])
        else:
            import tracing

            phase = run_phase(workloads, ctx, args.seconds / 2, rng=rng)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(
                    workloads, ctx, 0, rounds=phase.rounds, tracer=tracer, check=False
                )
            finally:
                tracer.uninstall()
            same = traced.digest.hexdigest() == phase.digest.hexdigest()
            correct = phase.failed == 0 and same
            spans_path = os.path.join(work_root, f"spans-{args.workload}.tsv")
            tracer.write(spans_path)
            metrics = with_units(
                per_layer(tracer, phase, traced, measure_import()), spec["per_layer"]
            )
            extra = [
                f"digest untraced {phase.digest.hexdigest()[:16]} traced "
                f"{traced.digest.hexdigest()[:16]} {'identical' if same else 'DIFFERENT'}",
                f"spans written to {os.path.relpath(spans_path, inputs.ROOT)}",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, phase, metrics, extra)
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
