"""Seeded inputs for the benchmark: tables, words, starts and radii.

Every input is drawn from ``random.Random`` seeded by the workload seed, so
the same seed gives the same inputs.  Nothing here calls the library to
choose an input (in particular not ``sample_states``); the library only
loads the table files this module writes.

Run as a script, this module is the set-up step whose wall time the
benchmark reports as ``setup_s``::

    python3 bench/inputs.py <workload> <seed> <workdir>

It imports ``polybounce.cli``, writes the workload's generated tables into
``workdir``, loads every table of the workload and exits.
"""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TABLES = os.path.join(ROOT, "tables")

WORKLOADS = ("spectrum-f64", "decide-exact", "trace-long")

# The nonconvex right-angled hexagon of the test suite.
LSHAPE = ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))

# Random rational polygons written per seed for decide-exact: two
# right-angled staircases (rational unfolding exists) and two star-shaped
# quadrilaterals with generic angles (NotRational).
RANDOM_ORTHO = ("ortho0", "ortho1")
RANDOM_STAR = ("star0", "star1")

SHIPPED_TABLES = ("square", "rect21", "quad", "acute")
SURFACES = ("octagon", "torus")


def workload_rng(workload: str, seed: int) -> random.Random:
    """The input stream of one run; a str seed is hashed with SHA-512, so it
    does not depend on PYTHONHASHSEED."""
    return random.Random(f"polybounce-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# table text


def format_number(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def table_text(name: str, coords) -> str:
    """Table file text with edges labelled a, b, c, ..."""
    labels = [chr(ord("a") + i) for i in range(len(coords))]
    lines = [f"table {name}"]
    lines += [f"vertex {format_number(x)} {format_number(y)}" for x, y in coords]
    lines.append("labels " + " ".join(labels))
    return "\n".join(lines) + "\n"


class TableFile(NamedTuple):
    path: str
    coords: tuple  # exact vertex coordinates, in file order
    labels: tuple


def parse_table_file(path: str) -> TableFile:
    """Vertices (as exact Fractions) and labels of a table or surface file."""
    coords = []
    labels = ()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if parts and parts[0] == "vertex":
                coords.append((Fraction(parts[1]), Fraction(parts[2])))
            elif parts and parts[0] == "labels":
                labels = tuple(parts[1:])
    return TableFile(path, tuple(coords), labels)


# ---------------------------------------------------------------------------
# random rational polygons


def random_orthogonal(rng: random.Random):
    """Staircase (histogram) polygon of 3 columns: 8 vertices,
    right-angled, simple, CCW, nonconvex.

    Columns of widths w_i and heights h_i with consecutive heights distinct,
    all multiples of 1/2 or 1/3.  The vertex count is fixed so that the
    seed does not change the cost of an op on the table.
    """
    cols = 3
    den = rng.choice((2, 3))
    xs = [Fraction(0)]
    for _ in range(cols):
        xs.append(xs[-1] + Fraction(rng.randint(den, 2 * den), den))
    heights = []
    while len(heights) < cols:
        h = Fraction(rng.randint(den, 3 * den), den)
        if not heights or h != heights[-1]:
            heights.append(h)
    coords = [(xs[0], Fraction(0)), (xs[-1], Fraction(0))]
    for i in range(cols, 0, -1):
        coords.append((xs[i], heights[i - 1]))
        coords.append((xs[i - 1], heights[i - 1]))
    return tuple(coords)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def random_star(rng: random.Random):
    """Star-shaped quadrilateral about the origin with one vertex per
    angular quarter and coordinates of denominator 4.

    Drawn until every consecutive vertex pair turns counterclockwise about
    the origin, which makes the polygon simple, CCW and star-shaped, and no
    vertex is straight.
    """
    n = 4
    while True:
        coords = []
        for i in range(n):
            theta = 2 * math.pi * (i + rng.uniform(0.2, 0.8)) / n
            r = rng.uniform(1.0, 2.0)
            coords.append(
                (Fraction(round(4 * r * math.cos(theta)), 4),
                 Fraction(round(4 * r * math.sin(theta)), 4))
            )
        if all(
            _cross(coords[i - 1], coords[i], coords[(i + 1) % n]) != 0
            for i in range(n)
        ) and all(_cross((0, 0), coords[i], coords[(i + 1) % n]) > 0 for i in range(n)):
            return tuple(coords)


def angles_quarter_rational(coords) -> bool:
    """The benchmark's own rationality test for an exact table: every
    interior angle is a multiple of pi/4.  (For rational vertices e^{2i
    theta} lies in Q(i), whose only roots of unity are +-1 and +-i.)"""
    n = len(coords)
    for i in range(n):
        a, b, c = coords[i - 1], coords[i], coords[(i + 1) % n]
        ux, uy = b[0] - a[0], b[1] - a[1]
        wx, wy = c[0] - b[0], c[1] - b[1]
        dot = ux * wx + uy * wy
        cross = ux * wy - uy * wx
        if dot != 0 and cross != 0 and abs(dot) != abs(cross):
            return False
    return True


def strictly_inside(coords, p) -> bool:
    """Even-odd point-in-polygon test, false on the boundary."""
    n = len(coords)
    inside = False
    for i in range(n):
        a, b = coords[i], coords[(i + 1) % n]
        if _cross(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= p[1] <= max(a[1], b[1]):
            return False
        if (a[1] > p[1]) != (b[1] > p[1]):
            x = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x > p[0]:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# words, starts, radii


def cyclic_word(rng: random.Random, labels, length: int):
    """Word with no symbol repeated consecutively, wrap-around included."""
    while True:
        w = [rng.choice(labels) for _ in range(length)]
        if all(w[i] != w[(i + 1) % length] for i in range(length)):
            return w


def rational_start(rng: random.Random, coords, lattice: bool):
    """(x, y, p, q): a small-denominator start strictly inside the polygon
    and a primitive integer direction with p, q != 0.

    With ``lattice`` set (integer vertices, edges parallel to the axes or
    glued by integer translations) the start line avoids every lattice
    point, i.e. q*x - p*y is not an integer.  All vertex images of the
    unfolding lie on the lattice, so the exact flight never ends at a
    vertex and runs to its full length.
    """
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    while True:
        den = rng.randint(3, 9)
        x = Fraction(rng.randint(math.ceil(min(xs) * den), math.floor(max(xs) * den)), den)
        y = Fraction(rng.randint(math.ceil(min(ys) * den), math.floor(max(ys) * den)), den)
        p = rng.choice((-1, 1)) * rng.randint(1, 9)
        q = rng.choice((-1, 1)) * rng.randint(1, 9)
        if math.gcd(p, q) != 1 or not strictly_inside(coords, (x, y)):
            continue
        if lattice and (q * x - p * y).denominator == 1:
            continue
        return x, y, p, q


# ---------------------------------------------------------------------------
# per-workload table files


def workload_tables(workload: str, seed: int, workdir: str):
    """{name: TableFile} of every table or surface the workload uses,
    writing the generated ones into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    files = {}

    def shipped(name, ext="table"):
        files[name] = parse_table_file(os.path.join(TABLES, f"{name}.{ext}"))

    def written(name, coords):
        path = os.path.join(workdir, f"{name}.table")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table_text(name, coords))
        files[name] = parse_table_file(path)

    if workload == "spectrum-f64":
        for name in SHIPPED_TABLES:
            shipped(name)
    elif workload == "decide-exact":
        for name in SHIPPED_TABLES:
            shipped(name)
        written("lshape", [(Fraction(x), Fraction(y)) for x, y in LSHAPE])
        rng = random.Random(f"polybounce-bench:tables:{seed}")
        for name in RANDOM_ORTHO:
            written(name, random_orthogonal(rng))
        for name in RANDOM_STAR:
            written(name, random_star(rng))
    elif workload == "trace-long":
        for name in ("square", "quad", "acute"):
            shipped(name)
        written("lshape", [(Fraction(x), Fraction(y)) for x, y in LSHAPE])
        for name in SURFACES:
            shipped(name, "surface")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


def load_all(workload: str, files):
    """Load every file of the workload on the backends the workload uses:
    {name: {backend: LabeledTable or GluedPolygon}}."""
    from polybounce import geom, surface, table

    backends = {
        "spectrum-f64": (geom.F64,),
        "decide-exact": (geom.EXACT,),
        "trace-long": (geom.EXACT, geom.F64),
    }[workload]
    loaded = {}
    for name, tf in files.items():
        load = surface.load_glued_polygon if tf.path.endswith(".surface") else table.load_table
        loaded[name] = {b: load(tf.path, b) for b in backends}
    return loaded


def import_library():
    """Import the package from this checkout's ``src``; exit 2 without it."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import polybounce.cli  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import polybounce from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    import polybounce

    if os.path.dirname(os.path.abspath(polybounce.__file__)) != os.path.join(SRC, "polybounce"):
        print(f"bench: polybounce imported from outside {SRC}", file=sys.stderr)
        sys.exit(2)
    if not os.path.isdir(TABLES):
        print(f"bench: missing table directory {TABLES}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    import_library()
    _workload, _seed, _workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    load_all(_workload, workload_tables(_workload, _seed, _workdir))
