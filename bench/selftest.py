"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

The workload tests run one round of a workload (about a second each), not a
timed run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

inputs.import_library()

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polybounce import analysis, flow, geom, table  # noqa: E402


@pytest.fixture(autouse=True)
def _reset_float_tolerance():
    geom.set_float_tolerance(1e-9)
    yield
    geom.set_float_tolerance(1e-9)


def context(workload, seed, tmp_path):
    files = inputs.workload_tables(workload, seed, str(tmp_path / f"{workload}-{seed}"))
    return workloads.Context(workload, files, inputs.load_all(workload, files))


def rounds(workload, seed, files, count=3):
    rng = inputs.workload_rng(workload, seed)
    return [workloads.ROUNDS[workload](rng, r, files) for r in range(count)]


def one_round(workload, seed, tmp_path):
    ctx = context(workload, seed, tmp_path)
    return ctx, run.run_phase(workloads, ctx, 0, rng=inputs.workload_rng(workload, seed))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    def generated(seed, sub):
        files = inputs.workload_tables(workload, seed, str(tmp_path / sub))
        texts = {}
        for name, tf in files.items():
            with open(tf.path, encoding="utf-8") as fh:
                texts[name] = fh.read()
        ops = rounds(workload, seed, files)
        # table paths differ between the two directories; compare the rest
        ops = [[(op.kind, op.table, op.backend, op.ref,
                 tuple(a for a in op.args if str(tmp_path) not in str(a))) for op in r] for r in ops]
        return texts, ops

    assert generated(7, "a") == generated(7, "b")
    assert generated(7, "a")[1] != generated(8, "c")[1]


def test_random_tables_are_valid_and_classified(tmp_path):
    for seed in range(20):
        ctx = context("decide-exact", seed, tmp_path)
        for name in inputs.RANDOM_ORTHO:
            assert inputs.angles_quarter_rational(ctx.files[name].coords)
        for name in inputs.RANDOM_STAR:
            assert ctx.tables[name][geom.EXACT].n == len(ctx.files[name].coords)


def test_lattice_starts_fly_full_length(tmp_path):
    ctx = context("trace-long", 3, tmp_path)
    rng = inputs.workload_rng("trace-long", 3)
    for _ in range(5):
        x, y, p, q = inputs.rational_start(rng, ctx.files["square"].coords, lattice=True)
        state = flow.RayState(geom.Point2(x, y), geom.direction(p, q, geom.EXACT),
                              ctx.tables["square"][geom.EXACT])
        assert not flow.trace(state, 200).is_singular


def _corrupt_trace(monkeypatch):
    real = flow.trace

    def corrupted(state, max_bounces):
        traj = real(state, max_bounces)
        if isinstance(state.position.x, float) or len(traj.hits) < 2:
            return traj
        hits = list(traj.hits)
        hits[1] = flow.TrajectoryHit(hits[0].edge_label, hits[1].point, hits[1].direction)
        return flow.Trajectory(traj.start, tuple(hits), traj.terminated_by)

    monkeypatch.setattr(flow, "trace", corrupted)


def test_corrupted_flight_word_raises_fail_ratio(tmp_path, monkeypatch):
    _, clean = one_round("trace-long", 1, tmp_path)
    assert clean.failed == 0
    _corrupt_trace(monkeypatch)
    _, bad = one_round("trace-long", 1, tmp_path)
    assert bad.failed > clean.failed
    assert bad.failures[workloads.BACKENDS_DISAGREE] > 0


def test_corrupted_sampled_word_raises_fail_ratio(tmp_path, monkeypatch):
    _, clean = one_round("spectrum-f64", 1, tmp_path)
    assert clean.failed == 0
    real = analysis.sample_bounce_language

    def corrupted(table, k, budget, rng_seed):
        lang = real(table, k, budget, rng_seed)
        word = min(lang.words)
        bad = (word[0], word[0]) + word[2:]
        return analysis.WordLanguage(lang.k, lang.words | {bad}, lang.alphabet, lang.provenance)

    monkeypatch.setattr(analysis, "sample_bounce_language", corrupted)
    _, bad = one_round("spectrum-f64", 1, tmp_path)
    assert bad.failed == bad.attempted
    assert bad.failures[workloads.MALFORMED_WORD] == bad.attempted


def test_corrupted_periodic_witness_raises_fail_ratio(tmp_path, monkeypatch):
    ctx = context("decide-exact", 1, tmp_path)
    op = workloads.Op("periodic", "square", geom.EXACT,
                      ("periodic", "--table", ctx.files["square"].path, "--word", "1,2,3,4"))
    output = workloads.execute(op, ctx, [])
    assert output[1].split("\t")[1] == "true"
    assert workloads.check(op, output, [], ctx) == []
    _corrupt_trace(monkeypatch)
    assert workloads.WITNESS_OPEN in workloads.check(op, output, [], ctx)


def periodic_op(ctx, table, word):
    argv = ("periodic", "--table", ctx.files[table].path, "--word", word)
    return workloads.Op("periodic", table, geom.EXACT, argv)


def test_periodic_negatives_are_checked_independently(tmp_path, monkeypatch):
    ctx = context("decide-exact", 1, tmp_path)
    # two perpendicular reflections make a half-turn, not a translation
    assert workloads.corridor_band(ctx.files["square"], ("1", "2"))[1] is None
    positive = periodic_op(ctx, "square", "1,2,3,4")
    negative = periodic_op(ctx, "square", "1,2")
    for op in (positive, negative):
        assert workloads.check(op, workloads.execute(op, ctx, []), [], ctx) == []
    # an engine that never finds a witness answers EmptyCorridor
    monkeypatch.setattr(analysis, "_witness_for_offset", lambda *args: None)
    output = workloads.execute(positive, ctx, [])
    assert output[1].split("\t")[1] == "false"
    assert workloads.check(positive, output, [], ctx) == [workloads.FALSE_NEGATIVE]
    random_positive = periodic_op(ctx, "rect21", "2,4")  # not in KNOWN_PERIODIC
    output = workloads.execute(random_positive, ctx, [])
    assert workloads.check(random_positive, output, [], ctx) == [workloads.FALSE_NEGATIVE]


def test_periodic_row_fields_are_checked(tmp_path):
    ctx = context("decide-exact", 1, tmp_path)
    op = periodic_op(ctx, "rect21", "1,2,3,4")
    code, out, err = workloads.execute(op, ctx, [])
    fields = out.rstrip("\n").split("\t")
    assert workloads.check(op, (code, out, err), [], ctx) == []
    for i, bad in ((2, "7"), (4, "1/3"), (1, "false")):
        corrupted = fields[:i] + [bad] + fields[i + 1:]
        if bad == "false":
            corrupted += [analysis.NON_TRANSLATION]
        output = (code, "\t".join(corrupted) + "\n", err)
        assert workloads.check(op, output, [], ctx) == [workloads.PERIODIC_ROW]


# Library defects on nonconvex tables that the timed mix leaves out, because
# a run with a failed op reports correct: false (see README.md).  Each case
# must still fail with its class; once the library is fixed the test fails,
# and the op class can go back into the mix.
F = Fraction
KNOWN_DEFECTS = {
    "lshape-diagonal-through-wall": (
        inputs.LSHAPE, ("diagonals", "--vertex", "4", "--max-len", "4"),
        workloads.DIAGONAL_BAD,
    ),
    "staircase-witness-points-out": (
        ((0, 0), (5, 0), (5, F(5, 2)), (3, F(5, 2)), (3, F(3, 2)), (1, F(3, 2)),
         (1, F(5, 2)), (0, F(5, 2))),
        ("periodic", "--word", "d,f,d,f"),
        workloads.PERIODIC_EXIT,
    ),
    "staircase-band-wider-than-family": (
        ((0, 0), (F(7, 2), 0), (F(7, 2), 2), (F(5, 2), 2), (F(5, 2), 1), (F(3, 2), 1),
         (F(3, 2), F(5, 2)), (0, F(5, 2))),
        ("periodic", "--word", "h,b"),
        workloads.BAND_OPEN,
    ),
}


@pytest.mark.parametrize("case", sorted(KNOWN_DEFECTS))
def test_known_defects_left_out_of_the_mix_still_fail(case, tmp_path):
    coords, args, failure = KNOWN_DEFECTS[case]
    path = tmp_path / "defect.table"
    path.write_text(inputs.table_text("defect", coords), encoding="utf-8")
    tf = inputs.parse_table_file(str(path))
    ctx = workloads.Context("decide-exact", {"defect": tf},
                            {"defect": {geom.EXACT: table.load_table(tf.path, geom.EXACT)}})
    op = workloads.Op(args[0], "defect", geom.EXACT, (args[0], "--table", tf.path) + args[1:])
    assert workloads.check(op, workloads.execute(op, ctx, []), [], ctx) == [failure]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_and_untraced_digests_match(workload, tmp_path):
    originals = {name: getattr(m, a) for name, (m, a) in tracing.TARGETS.items()}
    ctx, plain = one_round(workload, 2, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_phase(workloads, ctx, 0, rounds=plain.rounds, tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    assert traced.digest.hexdigest() == plain.digest.hexdigest()
    assert len(tracer.span_name) > traced.attempted
    assert {name: getattr(m, a) for name, (m, a) in tracing.TARGETS.items()} == originals
    assert analysis.trace is flow.trace


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(inputs.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.25) == "improved"
    assert compare.verdict(parent, [v * 0.6 for v in parent], "higher", 0.25) == "worse"
    assert compare.verdict(parent, [v * 0.9 for v in parent], "higher", 0.25) == "no worse"
    assert compare.verdict(parent, [v * 1.5 for v in parent], "lower", 0.25) == "worse"
    wide = [50.0, 150.0] * 5
    assert compare.verdict(wide, wide[::-1], "lower", 0.25) == "unresolved"
    # fewer than 10 pairs: no verdict from the 9-of-10 rule, whatever the values
    assert compare.verdict(parent[:3], [v * 1.5 for v in parent[:3]], "higher", 0.25) == "unresolved"
    assert compare.verdict(parent[:3], [v * 0.5 for v in parent[:3]], "higher", 0.25) == "unresolved"


def test_compare_fail_ratio():
    def runs(failed, attempted):
        return [{"failed": failed, "attempted": attempted}]

    assert compare.fail_ratio_higher(runs(0, 1000), runs(1, 1000))[0]
    assert not compare.fail_ratio_higher(runs(0, 1000), runs(0, 900))[0]
    assert not compare.fail_ratio_higher(runs(46, 4176), runs(75, 6736))[0]
    assert compare.fail_ratio_higher(runs(46, 4176), runs(150, 4176))[0]
