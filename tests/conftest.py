import pathlib
from fractions import Fraction

import pytest

from polybounce import geom
from polybounce.flow import RayState, SingularHit, TrajectoryHit, trace, vertex_guard
from polybounce.geom import CCW, CW, EXACT, Point2, Vec2, point, ray_segment_hit, sign
from polybounce.table import (
    INSIDE,
    ON_EDGE,
    ON_VERTEX,
    OUTSIDE,
    _on_segment,
    validate_table,
)

TABLES = pathlib.Path(__file__).resolve().parent.parent / "tables"


@pytest.fixture(autouse=True)
def _reset_float_tolerance():
    yield
    geom.set_float_tolerance(1e-9)


def exact_points(coords):
    return [point(x, y, EXACT) for x, y in coords]


def reference_first_hit(origin, d, segments):
    """Oracle for geom.first_hit: ray_segment_hit on every segment, the
    smallest t wins and ties go to the lowest index."""
    best = None
    for i, s in enumerate(segments):
        h = ray_segment_hit(origin, d, s)
        if h is not None and (best is None or h.t < best[1].t):
            best = (i, h)
    return best


def reference_apply(iso, p):
    """Oracle for PlanarIsometry.apply: M p + t in scalar arithmetic."""
    return Point2(
        iso.m00 * p.x + iso.m01 * p.y + iso.tx,
        iso.m10 * p.x + iso.m11 * p.y + iso.ty,
    )


def reference_apply_vec(iso, v):
    """Oracle for PlanarIsometry.apply_vec: M v in scalar arithmetic."""
    return Vec2(iso.m00 * v.dx + iso.m01 * v.dy, iso.m10 * v.dx + iso.m11 * v.dy)


def reference_fly(state, steps, check_start, gluing, escape):
    """Oracle for flow.fly: the flight loop over reference_first_hit and the
    scalar isometry expressions, with no per-flight set-up."""
    if steps < 0:
        raise ValueError("step count must be >= 0")
    check_start()
    table, pos, d = state.table, state.position, state.direction
    edges = table.edges()
    hits, ends = [], []
    for _ in range(steps):
        best = reference_first_hit(pos, d, edges)
        if best is None:
            raise escape("ray escaped the polygon (inconsistent state)")
        i, h = best
        ends.append(h.point)
        v_idx = vertex_guard(table, i, h)
        if v_idx is not None:
            return hits, ends, SingularHit(h.t, v_idx)
        j, iso = gluing[i]
        d = geom.renormalized(reference_apply_vec(iso, d))
        pos = h.point if j == i else reference_apply(iso, h.point)
        hits.append(TrajectoryHit(table.labels[i], pos, d))
    return hits, ends, None


def reference_halton(index, base):
    """Oracle for analysis._radical_inverse: the Halton coordinate built
    digit by digit in Fractions."""
    result = Fraction(0)
    f = Fraction(1, base)
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


def reference_locate_point(table, p):
    """Oracle for table.locate_point: a vertex scan, an on-edge scan, then
    the even-odd crossing count, each in its own loop."""
    n = table.n
    for i, v in enumerate(table.vertices):
        if geom.points_equal(p, v):
            return ON_VERTEX, i
    for i in range(n):
        if _on_segment(p, table.edge(i)):
            return ON_EDGE, i
    # even-odd crossing count of the rightward ray, by exact predicates
    crossings = 0
    for i in range(n):
        a = table.vertices[i]
        b = table.vertices[(i + 1) % n]
        a_above = sign(a.y - p.y) > 0
        b_above = sign(b.y - p.y) > 0
        if a_above == b_above:
            continue
        o = geom.orientation(a, b, p)
        if (sign(b.y - a.y) > 0 and o == CCW) or (sign(b.y - a.y) < 0 and o == CW):
            crossings += 1
    return (INSIDE, -1) if crossings % 2 == 1 else (OUTSIDE, -1)


def reference_halton_starts(table, count, seed):
    """Oracle for analysis._halton_starts: Fraction Halton coordinates, with
    the f64 samples rounded from them; None for each start not inside."""
    backend = table.backend
    xmin, ymin, xmax, ymax = table.bounding_box()
    wx = xmax - xmin
    wy = ymax - ymin
    found = 0
    index = 1 + 1000003 * (seed % (1 << 30))
    attempts = 0
    cap = 1000 * count + 1000
    while found < count and attempts < cap:
        attempts += 1
        u_x = reference_halton(index, 2)
        u_y = reference_halton(index, 3)
        u_t = reference_halton(index, 5)
        u_s = reference_halton(index, 7)
        index += 1
        if backend == geom.EXACT:
            pos = Point2(xmin + u_x * wx, ymin + u_y * wy)
            t = 4 * (2 * u_t - 1)
            d = Vec2((1 - t * t) * wx, 2 * t * wy)
        else:
            pos = Point2(float(xmin + u_x * wx), float(ymin + u_y * wy))
            t = float(4 * (2 * u_t - 1))
            d = Vec2((1.0 - t * t) * float(wx), 2.0 * t * float(wy))
        if u_s >= Fraction(1, 2):
            d = -d
        kind, _ = reference_locate_point(table, pos)
        if kind != INSIDE:
            yield None
            continue
        found += 1
        yield RayState(pos, geom.renormalized(d), table)


def reference_sample_states(table, count, seed):
    """Oracle for analysis.sample_states."""
    return [s for s in reference_halton_starts(table, count, seed) if s is not None]


def reference_sample_bounce_language(table, k, budget, rng_seed):
    """Oracle for analysis.sample_bounce_language: every start is traced
    with flow.trace, which checks it again.  Returns (words, provenance)."""
    margin = max(4, k)
    words = set()
    singular_skipped = collected = batches = attempted = rejected = 0
    while collected < budget and batches < 50:
        seed = rng_seed + 7919 * batches
        batches += 1
        for state in reference_halton_starts(table, budget - collected, seed):
            attempted += 1
            if state is None:
                rejected += 1
                continue
            traj = trace(state, k + margin)
            if traj.is_singular:
                singular_skipped += 1
                continue
            symbols = tuple(h.edge_label for h in traj.hits)
            for i in range(len(symbols) - k + 1):
                words.add(symbols[i : i + k])
            collected += 1
    provenance = {
        "seed": rng_seed,
        "k": k,
        "margin": margin,
        "budget": budget,
        "trajectories": collected,
        "singular_skipped": singular_skipped,
        "backend": table.backend,
        "attempted": attempted,
        "rejected_outside": rejected,
    }
    return frozenset(words), provenance


@pytest.fixture
def square():
    return validate_table(
        exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]), ["1", "2", "3", "4"], "square"
    )


@pytest.fixture
def rect21():
    return validate_table(
        exact_points([(0, 0), (2, 0), (2, 1), (0, 1)]), ["1", "2", "3", "4"], "rect21"
    )


@pytest.fixture
def acute_triangle():
    from fractions import Fraction as F

    return validate_table(
        [point(0, 0, EXACT), point(1, 0, EXACT), Point2(F(3, 10), F(4, 5))],
        ["1", "2", "3"],
        "acute",
    )


@pytest.fixture
def lshape():
    # nonconvex right-angled hexagon
    return validate_table(
        exact_points([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
        ["a", "b", "c", "d", "e", "f"],
        "lshape",
    )
