"""The three workloads: op schedules, op execution, oracles and digests.

A run is a closed loop with one client: ops execute one after another in a
single thread.  Ops come in rounds of a fixed composition, with every input
of a round drawn from the workload's seeded stream, and a run executes whole
rounds.  The share of each op class in a run is therefore the same on every
seed, so the latency percentiles fall inside an op class (see README.md)
rather than on the seam between two classes.

Ops call the public functions of the library through their modules
(``analysis.sample_bounce_language``, ``cli.main``, ``flow.trace``, ...), so
the traced run can wrap them by rebinding module attributes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import inputs
from polybounce import analysis, cli, flow, geom, surface
from polybounce.errors import BilliardError
from polybounce.geom import EXACT, F64, Point2

# spectrum-f64: one op is one sampler call at these sizes
SPECTRUM_K = 8
SPECTRUM_BUDGET = 60
# rng_seed range of fixed width: _halton's cost grows with the digit count of
# its index 1 + 1000003*seed, so every seed must have the same digit count
RNG_SEED_LO = 1 << 24
RNG_SEED_HI = 1 << 25

# decide-exact
# Periodic decisions per round: 9 random words rotate over the 3- and
# 4-vertex tables, one known periodic word is on a shipped table, and two
# random words are on the L-shape.  Loading and validating the 6-vertex table
# costs about twice as much, so those ops are kept to a fixed share, small
# enough that the median lies well inside the cheap ones.
SMALL_PERIODIC_TABLES = ("square", "rect21", "acute", "quad") + inputs.RANDOM_STAR
SMALL_PERIODIC_OPS = 9
# The random staircases get no periodic ops: on them periodic_orbit_for_word
# sometimes reports a band wider than the family, or folds its witness back
# to a start that points out of the table (see README.md).
LARGE_PERIODIC_TABLES = ("lshape", "lshape")
# One more cheap periodic op per round asks a word known to be periodic: the
# diagonal and the bouncing-ball orbits of the square and of rect21, and the
# Fagnano orbit of the acute triangle (doubled, since it is odd).  A "false"
# for any of them is a failure whatever the oracle below concludes.
KNOWN_PERIODIC = (
    ("square", "1,2,3,4"),
    ("rect21", "1,3"),
    ("acute", "1,2,3"),
    ("square", "2,4"),
    ("rect21", "1,2,3,4"),
)
# offsets of the independently computed band at which a negative answer is
# probed for a closing witness
PROBE_OFFSETS = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
# (table, lowest radius, highest radius): each search takes about 0.05-0.5 s.
# The L-shape has no diagonal ops: on it the search reports diagonals that
# pass through a wall, and above radius 23/4 it does not finish (see
# README.md).
DIAGONAL_SPECS = (
    ("square", Fraction(7), Fraction(9)),
    ("rect21", Fraction(10), Fraction(12)),
    ("acute", Fraction(5), Fraction(6)),
    ("quad", Fraction(11, 2), Fraction(13, 2)),
)
RATIONAL_UNFOLD_TABLES = ("square", "rect21", "lshape") + inputs.RANDOM_ORTHO
# Both run every round; each walks classify_table's 720-step loop per vertex.
IRRATIONAL_UNFOLD_TABLES = ("acute", "quad")

# trace-long
TRACE_TABLES = ("square", "quad", "acute", "lshape")
LATTICE_TABLES = ("square", "lshape")
# fixed flight lengths: the seed varies the starts, not the amount of work
TRACE_BOUNCES = 1500
CUT_CROSSINGS = 300

IDENTITY = {label: label for label in "1234"}

# failure classes, named in the run's report
PERIODIC_EXIT = "periodic.unexpected_exit"
DIAGONALS_EXIT = "diagonals.unexpected_exit"
MALFORMED_WORD = "spectrum.malformed_word"
AFFINE_SEPARATED = "spectrum.affine_pair_not_indistinguishable"
NOT_SEPARATED = "spectrum.quad_pair_not_separated"
WITNESS_OUTSIDE = "spectrum.witness_not_in_language"
PERIODIC_ROW = "periodic.row_mismatch"
WITNESS_OPEN = "periodic.witness_not_closed"
FALSE_NEGATIVE = "periodic.false_negative"
BAND_OPEN = "periodic.band_offset_not_closed"
DIAGONAL_BAD = "diagonals.record_rejected"
UNFOLD_VERDICT = "unfold.verdict_mismatch"
BACKENDS_DISAGREE = "trace.backends_disagree"


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``ref`` indexes an earlier op of the same round whose output this op
    uses (the other table of a spectrum pair) or is checked against (the
    exact flight of an f64 flight).
    """

    kind: str
    table: str
    backend: str
    args: Tuple
    ref: Optional[int] = None

    @property
    def op_class(self) -> str:
        if self.kind in ("trace", "cut"):
            return f"{self.kind}-{self.backend}"
        return self.kind


class Context:
    """Loaded inputs of one run: table files and library objects."""

    def __init__(self, workload: str, files, tables):
        self.workload = workload
        self.files = files
        self.tables = tables


# ---------------------------------------------------------------------------
# schedules


def spectrum_round(rng, r, files):
    seed = rng.randrange(RNG_SEED_LO, RNG_SEED_HI)
    return [
        Op("sample", "square", F64, (seed,)),
        Op("sample", "rect21", F64, (seed,), ref=0),
        Op("sample", "quad", F64, (seed,), ref=0),
        Op("sample", "acute", F64, (seed,)),
    ]


def decide_round(rng, r, files):
    ops = []
    small = [
        SMALL_PERIODIC_TABLES[(SMALL_PERIODIC_OPS * r + i) % len(SMALL_PERIODIC_TABLES)]
        for i in range(SMALL_PERIODIC_OPS)
    ]
    for name in small + list(LARGE_PERIODIC_TABLES):
        word = ",".join(inputs.cyclic_word(rng, files[name].labels, rng.randint(2, 8)))
        argv = ["periodic", "--table", files[name].path, "--word", word]
        ops.append(Op("periodic", name, EXACT, tuple(argv)))
    name, word = KNOWN_PERIODIC[r % len(KNOWN_PERIODIC)]
    ops.append(Op("periodic", name, EXACT, ("periodic", "--table", files[name].path, "--word", word)))
    name, lo, hi = DIAGONAL_SPECS[r % len(DIAGONAL_SPECS)]
    vertex = rng.randrange(len(files[name].coords))
    radius = Fraction(rng.randint(int(lo * 4), int(hi * 4)), 4)
    argv = [
        "diagonals", "--table", files[name].path,
        "--vertex", str(vertex), "--max-len", inputs.format_number(radius),
    ]
    ops.append(Op("diagonals", name, EXACT, tuple(argv)))
    for name in (RATIONAL_UNFOLD_TABLES[r % len(RATIONAL_UNFOLD_TABLES)],) + IRRATIONAL_UNFOLD_TABLES:
        argv = ["unfold", "--table", files[name].path, "--rational"]
        ops.append(Op("unfold", name, EXACT, tuple(argv)))
    rng.shuffle(ops)
    return ops


def trace_round(rng, r, files):
    ops = []
    for name in TRACE_TABLES:
        start = inputs.rational_start(rng, files[name].coords, name in LATTICE_TABLES)
        ops.append(Op("trace", name, EXACT, start + (TRACE_BOUNCES,)))
        ops.append(Op("trace", name, F64, start + (TRACE_BOUNCES,), ref=len(ops) - 1))
    # Two exact cutting sequences per surface and one f64 one: the class
    # sizes put the median inside the exact-cutting class (see README.md).
    for name in inputs.SURFACES:
        for j in range(2):
            start = inputs.rational_start(rng, files[name].coords, lattice=True)
            ops.append(Op("cut", name, EXACT, start + (CUT_CROSSINGS,)))
            if j == 0:
                ops.append(Op("cut", name, F64, start + (CUT_CROSSINGS,), ref=len(ops) - 1))
    return ops


ROUNDS = {
    "spectrum-f64": spectrum_round,
    "decide-exact": decide_round,
    "trace-long": trace_round,
}


# ---------------------------------------------------------------------------
# execution (the timed region)


def _flight_start(op: Op):
    x, y, p, q = op.args[:4]
    if op.backend == EXACT:
        return Point2(x, y), geom.direction(Fraction(p), Fraction(q), EXACT)
    return Point2(float(x), float(y)), geom.direction(float(p), float(q), F64)


def execute(op: Op, ctx: Context, outs):
    """Run one op and return its raw output."""
    if op.kind == "sample":
        lang = analysis.sample_bounce_language(
            ctx.tables[op.table][F64], SPECTRUM_K, SPECTRUM_BUDGET, op.args[0]
        )
        cmp = None
        if op.ref is not None:
            cmp = analysis.compare_spectra(outs[op.ref][0], lang, IDENTITY)
        return lang, cmp
    if op.kind == "trace":
        pos, d = _flight_start(op)
        state = flow.RayState(pos, d, ctx.tables[op.table][op.backend])
        traj = flow.trace(state, op.args[4])
        return tuple(h.edge_label for h in traj.hits), traj.is_singular, traj
    if op.kind == "cut":
        pos, d = _flight_start(op)
        word = surface.cutting_sequence(ctx.tables[op.table][op.backend], pos, d, op.args[4])
        return word.symbols, word.singular, word
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.main(list(op.args), out, err)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# digests (identical for the traced and the untraced run)


def digest_text(op: Op, output) -> str:
    if op.kind == "sample":
        lang, cmp = output
        text = ";".join(",".join(w) for w in sorted(lang.words))
        text += f"|{lang.provenance['trajectories']}|{lang.provenance['attempted']}"
        if cmp is not None:
            text += f"|{cmp.kind}|{cmp.witness}|{cmp.side}"
        return text
    if op.kind == "trace":
        symbols, singular, traj = output
        last = traj.hits[-1].point if traj.hits else traj.start.position
        return f"{','.join(symbols)}|{singular}|{geom.format_scalar(last.x)},{geom.format_scalar(last.y)}"
    if op.kind == "cut":
        symbols, singular, _ = output
        return f"{','.join(symbols)}|{singular}"
    code, out, err = output
    return f"{code}|{out}|{err}"


# ---------------------------------------------------------------------------
# oracles (outside the timed region)


def _valid_billiard_word(word, k, alphabet) -> bool:
    """A straight flight never hits the same edge twice in a row."""
    return (
        len(word) == k
        and all(s in alphabet for s in word)
        and all(word[i] != word[i + 1] for i in range(k - 1))
    )


def check_sample(op, output, outs, ctx):
    lang, cmp = output
    failures = []
    alphabet = set(ctx.files[op.table].labels)
    if not all(_valid_billiard_word(w, SPECTRUM_K, alphabet) for w in lang.words):
        failures.append(MALFORMED_WORD)
    if cmp is None:
        return failures
    first = outs[op.ref][0]
    if op.table == "rect21":
        # rect21 is the square under diag(2, 1); with the same seed the
        # sampler draws corresponding starts, and the languages agree
        if cmp.kind != analysis.INDISTINGUISHABLE:
            failures.append(AFFINE_SEPARATED)
    elif cmp.kind != analysis.SEPARATED:
        failures.append(NOT_SEPARATED)
    else:
        side = first if cmp.side == "first" else lang
        if tuple(cmp.witness) not in side.words:
            failures.append(WITNESS_OUTSIDE)
    return failures


def _closes_up(state, word) -> bool:
    """Re-trace a periodic witness: the flight must bounce off ``word`` and
    return to its start point with its start direction."""
    traj = flow.trace(state, len(word))
    if traj.is_singular or tuple(h.edge_label for h in traj.hits) != tuple(word):
        return False
    last = traj.hits[-1]
    return (
        last.point == state.position
        and last.direction.dx * state.direction.dy == last.direction.dy * state.direction.dx
        and last.direction.dx * state.direction.dx + last.direction.dy * state.direction.dy > 0
    )


# Independent corridor of a word, on exact vertex coordinates from the table
# file: an affine map is (m00, m01, m10, m11, tx, ty).


def _reflection(a, b):
    """The reflection across the line through a and b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    n2 = dx * dx + dy * dy
    c, s = (dx * dx - dy * dy) / n2, 2 * dx * dy / n2
    return (c, s, s, -c, a[0] - c * a[0] - s * a[1], a[1] - s * a[0] + c * a[1])


def _after(f, g):
    """f after g."""
    return (
        f[0] * g[0] + f[1] * g[2], f[0] * g[1] + f[1] * g[3],
        f[2] * g[0] + f[3] * g[2], f[2] * g[1] + f[3] * g[3],
        f[0] * g[4] + f[1] * g[5] + f[4], f[2] * g[4] + f[3] * g[5] + f[5],
    )


def _apply(f, p):
    return (f[0] * p[0] + f[1] * p[1] + f[4], f[2] * p[0] + f[3] * p[1] + f[5])


def _edge(tf, label):
    i = tf.labels.index(label)
    return tf.coords[i], tf.coords[(i + 1) % len(tf.coords)]


def corridor_band(tf, word):
    """(composite, band) of a word unfolded along its edges.

    The composite is the product of the edge reflections in word order.
    When it is a nonzero translation T, band is (lo, hi, normal): the open
    interval of offsets ``normal . x`` that every unfolded edge spans, for
    the normal (-T_y, T_x).  Otherwise band is None.
    """
    g = (1, 0, 0, 1, 0, 0)
    gates = []
    for label in word:
        a, b = _edge(tf, label)
        gates.append((_apply(g, a), _apply(g, b)))
        g = _after(g, _reflection(a, b))
    if g[:4] != (1, 0, 0, 1) or g[4] == g[5] == 0:
        return g, None
    n = (-g[5], g[4])
    spans = [sorted(n[0] * p[0] + n[1] * p[1] for p in gate) for gate in gates]
    return g, (max(lo for lo, _ in spans), min(hi for _, hi in spans), n)


def _band_start(tf, table, word, t, band, frac):
    """Start on the word's last edge whose line, in direction T, has the
    band offset at ``frac``; a periodic flight along the word closes up
    there when the band is a family of periodic orbits."""
    lo, hi, n = band
    c = lo + frac * (hi - lo)
    a, b = _edge(tf, word[-1])
    pa, pb = n[0] * a[0] + n[1] * a[1], n[0] * b[0] + n[1] * b[1]
    tau = (c - pa) / (pb - pa)
    pos = Point2(a[0] + tau * (b[0] - a[0]), a[1] + tau * (b[1] - a[1]))
    return flow.RayState(pos, geom.direction(t[0], t[1], EXACT), table)


def _band_has_orbit(tf, table, word, t, band) -> bool:
    for frac in PROBE_OFFSETS:
        try:
            if _closes_up(_band_start(tf, table, word, t, band, frac), word):
                return True
        except BilliardError:  # the probe start lies outside or grazes
            continue
    return False


def _width(band):
    """Family width (hi - lo) / |normal|: exact when it is rational."""
    lo, hi, n = band
    sq = (hi - lo) ** 2 / (n[0] ** 2 + n[1] ** 2)
    rn, rd = math.isqrt(sq.numerator), math.isqrt(sq.denominator)
    if rn * rn == sq.numerator and rd * rd == sq.denominator:
        return Fraction(rn, rd)
    return math.sqrt(sq.numerator / sq.denominator)


def check_periodic(op, output, ctx):
    code, out, _ = output
    fields = out.rstrip("\n").split("\t")
    if code != 0 or len(fields) < 5:
        return [PERIODIC_EXIT]
    tf = ctx.files[op.table]
    table = ctx.tables[op.table][EXACT]
    text = op.args[op.args.index("--word") + 1]
    word = tuple(text.split(","))
    effective = word + word if len(word) % 2 else word
    comp, band = corridor_band(tf, effective)
    if fields[1] != "true":
        if fields[1] != "false":
            return [PERIODIC_ROW]
        if band is None:
            return [] if fields[5:] == [analysis.NON_TRANSLATION] else [PERIODIC_ROW]
        if fields[5:] != [analysis.EMPTY_CORRIDOR]:
            return [PERIODIC_ROW]
        if (op.table, text) in KNOWN_PERIODIC:
            return [FALSE_NEGATIVE]
        if band[0] < band[1] and _band_has_orbit(tf, table, effective, comp[4:], band):
            return [FALSE_NEGATIVE]
        return []
    if band is None or band[0] >= band[1]:
        return [PERIODIC_ROW]
    width, printed = _width(band), Fraction(fields[4])
    if [Fraction(fields[2]), Fraction(fields[3])] != list(comp[4:]) or not (
        printed == width if isinstance(width, Fraction)
        else math.isclose(printed, width, rel_tol=1e-12)
    ):
        return [PERIODIC_ROW]
    res = analysis.periodic_orbit_for_word(table, word)
    if not res.exists:
        return [PERIODIC_ROW]
    failures = []
    if not _closes_up(res.witness_start, res.word):
        failures.append(WITNESS_OPEN)
    for frac in (Fraction(1, 3), Fraction(2, 3)):
        state = analysis.witness_at_offset(res, frac)
        if state is None or not _closes_up(state, res.word):
            failures.append(BAND_OPEN)
            break
    return failures


def check_diagonals(op, output, ctx):
    code, out, _ = output
    if code != 0:
        return [DIAGONALS_EXIT]
    table = ctx.tables[op.table][EXACT]
    vertex = int(op.args[op.args.index("--vertex") + 1])
    radius = Fraction(op.args[op.args.index("--max-len") + 1])
    v0 = table.vertices[vertex]
    for line in out.splitlines():
        word, length_sq, endpoint = line.split("\t")
        x, y = (Fraction(c) for c in endpoint.split(","))
        target = Point2(x, y)
        d2 = (x - v0.x) ** 2 + (y - v0.y) ** 2
        symbols = () if word == "()" else tuple(word.split(","))
        record = analysis.DiagonalRecord(symbols, vertex, target, Fraction(length_sq))
        if (
            d2 != Fraction(length_sq)
            or d2 > radius * radius
            or not analysis.resimulate_diagonal(table, record)
        ):
            return [DIAGONAL_BAD]
    return []


def check_unfold(op, output, ctx):
    code, out, err = output
    rational = inputs.angles_quarter_rational(ctx.files[op.table].coords)
    if rational:
        ok = code == 0 and out.startswith("surface ")
    else:
        ok = code == 1 and "NotRational" in err
    return [] if ok else [UNFOLD_VERDICT]


def check_flight(op, output, outs):
    """An f64 flight agrees with the exact flight from the same rational
    start up to the f64 flight's first singular stop."""
    if op.ref is None:
        return []
    symbols, singular, _ = output
    exact_symbols, exact_singular, _ = outs[op.ref]
    if exact_symbols[: len(symbols)] != symbols:
        return [BACKENDS_DISAGREE]
    if not singular and (exact_singular or len(exact_symbols) != len(symbols)):
        return [BACKENDS_DISAGREE]
    return []


def check(op: Op, output, outs, ctx: Context):
    """Failure classes of one op's output; empty when the oracle accepts."""
    if op.kind == "sample":
        return check_sample(op, output, outs, ctx)
    if op.kind in ("trace", "cut"):
        return check_flight(op, output, outs)
    if op.kind == "periodic":
        return check_periodic(op, output, ctx)
    if op.kind == "diagonals":
        return check_diagonals(op, output, ctx)
    return check_unfold(op, output, ctx)
