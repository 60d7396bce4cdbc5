"""Property tests of geometric invariants, on fixed pseudo-random examples."""

import dataclasses
import math
from fractions import Fraction as F
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from conftest import (
    TABLES,
    pi_triangle,
    reference_apply,
    reference_apply_vec,
    reference_build_rational_unfolding,
    reference_enumerate_generalized_diagonals,
    reference_first_hit,
    reference_fly,
    reference_halton,
    reference_locate_point,
    reference_sample_bounce_language,
    reference_sample_states,
    staircase_table,
)
from polybounce import flow, geom, surface
from polybounce.analysis import (
    _radical_inverse,
    enumerate_generalized_diagonals,
    resimulate_diagonal,
    sample_bounce_language,
    sample_states,
)
from polybounce.errors import BilliardError
from polybounce.flow import RayState, trace
from polybounce.geom import (
    EXACT,
    F64,
    Point2,
    Segment,
    Vec2,
    edge_integers,
    first_hit,
    orientation,
    sign_cross,
)
from polybounce.surface import cutting_sequence, load_glued_polygon
from polybounce.table import load_table, locate_point, validate_table
from polybounce.unfolding import build_rational_unfolding, format_surface

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

lattice_points = st.tuples(st.integers(0, 6), st.integers(0, 6))
small_vectors = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
small_rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 6, 7]))
rational_points = st.tuples(small_rationals, small_rationals)
big_rationals = st.builds(F, st.integers(-(1 << 200), 1 << 200), st.integers(1, 1 << 200))
exact_coords = st.one_of(small_rationals, big_rationals, st.integers(-50, 50))
segment_ends = st.one_of(lattice_points.map(lambda p: (F(p[0]), F(p[1]))), rational_points)
directions = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: v != (0, 0))
weights = st.lists(st.integers(1, 5), min_size=4, max_size=4)
shipped_tables = st.sampled_from(["square", "rect21", "quad", "acute"])
# the benchmark's sampler seeds lie in [2^24, 2^25)
sampler_seeds = st.one_of(st.sampled_from([0, 1]), st.integers(1 << 24, (1 << 25) - 1))


@PROPERTY
@given(lattice_points, lattice_points, lattice_points)
def test_lattice_triangle_diagonals(a, b, c):
    corners = (a, b, c)
    exact = [Point2(F(x), F(y)) for x, y in corners]
    assume(orientation(*exact) != 0)
    table = validate_table(exact, ["a", "b", "c"])
    floats = validate_table([Point2(float(x), float(y)) for x, y in corners], ["a", "b", "c"])
    for vertex in range(3):
        records = enumerate_generalized_diagonals(table, vertex, 3)
        for r in records:
            assert resimulate_diagonal(table, r)
        # records of equal exact length may come out in another order in f64
        float_records = enumerate_generalized_diagonals(floats, vertex, 3)
        assert sorted(r.word for r in float_records) == sorted(r.word for r in records)


@PROPERTY
@given(small_vectors, small_vectors)
def test_sign_cross_antisymmetric_and_backend_free(u, v):
    eu, ev = Vec2(F(u[0]), F(u[1])), Vec2(F(v[0]), F(v[1]))
    fu, fv = Vec2(float(u[0]), float(u[1])), Vec2(float(v[0]), float(v[1]))
    s = sign_cross(eu, ev)
    assert sign_cross(ev, eu) == -s
    assert sign_cross(fu, fv) == s
    assert sign_cross(fv, fu) == -s


@PROPERTY
@given(st.lists(rational_points, min_size=3, max_size=4), rational_points, rational_points,
       st.integers(-1, 3))
def test_exact_first_hit_matches_reference_scan(corners, o, d, aim):
    n = len(corners)
    segs = [Segment(Point2(*corners[i]), Point2(*corners[(i + 1) % n])) for i in range(n)]
    assume(all(s.a != s.b for s in segs))
    origin = Point2(*o)
    if aim >= 0:
        # aimed at a vertex
        d = (corners[aim % n][0] - o[0], corners[aim % n][1] - o[1])
    assume(d != (0, 0))
    ray = Vec2(*d)
    got = repr(first_hit(origin, ray, segs))
    assert got == repr(reference_first_hit(origin, ray, segs))
    assert repr(first_hit(origin, ray, segs, edge_integers(segs))) == got


@st.composite
def exact_isometries(draw):
    """A reflection across a lattice or mixed-denominator segment, a
    quarter-turn rotation or a translation, or the composite of two."""
    def single():
        kind = draw(st.sampled_from(["reflection", "rotation", "translation"]))
        a = Point2(*draw(segment_ends))
        if kind == "reflection":
            b = Point2(*draw(segment_ends))
            assume(a != b)
            return geom.reflection_across(Segment(a, b))
        if kind == "rotation":
            return geom.rotation_quarter_turns(draw(st.integers(0, 3)), a)
        return geom.translation(Vec2(a.x, a.y))

    f = single()
    return geom.compose(f, single()) if draw(st.booleans()) else f


@PROPERTY
@given(exact_isometries(), exact_coords, exact_coords)
def test_exact_isometry_matches_scalar_expressions(iso, x, y):
    p, v = Point2(x, y), Vec2(x, y)
    assert repr(iso.apply(p)) == repr(reference_apply(iso, p))
    assert repr(iso.apply_vec(v)) == repr(reference_apply_vec(iso, v))


def _trace_matches_reference(table, w, d):
    state = RayState(_inner_point(table.vertices, w), Vec2(F(d[0]), F(d[1])), table)
    got = repr(trace(state, 300))
    with mock.patch.object(flow, "fly", reference_fly):
        assert got == repr(trace(state, 300))


@PROPERTY
@given(shipped_tables, weights, directions)
def test_exact_trace_matches_reference_fly_shipped_tables(name, w, d):
    _trace_matches_reference(load_table(TABLES / f"{name}.table", EXACT), w, d)


@PROPERTY
@given(lattice_points, lattice_points, lattice_points, weights, directions)
def test_exact_trace_matches_reference_fly_lattice_triangles(a, b, c, w, d):
    exact = [Point2(F(x), F(y)) for x, y in (a, b, c)]
    assume(orientation(*exact) != 0)
    _trace_matches_reference(validate_table(exact, ["a", "b", "c"]), w, d)


@PROPERTY
@given(st.sampled_from(["torus", "octagon"]), weights, directions)
def test_exact_cutting_sequence_matches_reference_fly(name, w, d):
    gp = load_glued_polygon(TABLES / f"{name}.surface", EXACT)
    vs = gp.polygon.vertices
    # the octagon has 8 vertices: weight every other one
    start = _inner_point(vs[:: len(vs) // 4], w)
    ray = Vec2(F(d[0]), F(d[1]))
    got = repr(cutting_sequence(gp, start, ray, 300))
    with mock.patch.object(surface, "fly", reference_fly):
        assert got == repr(cutting_sequence(gp, start, ray, 300))


def _inner_point(vertices, w):
    # a convex combination with positive weights: inside a convex polygon
    total = sum(w[: len(vertices)])
    return Point2(sum(k * v.x for k, v in zip(w, vertices)) / total,
                  sum(k * v.y for k, v in zip(w, vertices)) / total)


def _reverses(table, w, d):
    """Trace 40 bounces from a convex combination of the vertices, then fly
    back from the last hit point against the incoming direction."""
    vs = table.vertices
    forward = trace(RayState(_inner_point(vs, w), Vec2(F(d[0]), F(d[1])), table), 40)
    hits = forward.hits
    legs = [forward.start.direction] + [h.direction for h in hits]
    if forward.is_singular:
        end, incoming, retraced = vs[forward.terminated_by.vertex_index], legs[-1], hits
    else:
        end, incoming, retraced = hits[-1].point, legs[-2], hits[:-1]
    back = trace(RayState(end, -incoming, table), len(retraced))
    labelled = [(h.edge_label, h.point) for h in back.hits]
    assert labelled == [(h.edge_label, h.point) for h in reversed(retraced)]


@PROPERTY
@given(lattice_points, lattice_points, lattice_points, weights, directions)
def test_time_reversal_lattice_triangles(a, b, c, w, d):
    exact = [Point2(F(x), F(y)) for x, y in (a, b, c)]
    assume(orientation(*exact) != 0)
    _reverses(validate_table(exact, ["a", "b", "c"]), w, d)


@PROPERTY
@given(shipped_tables, weights, directions)
def test_time_reversal_shipped_tables(name, w, d):
    # the shipped tables are convex, so every start drawn is inside
    _reverses(load_table(TABLES / f"{name}.table", EXACT), w, d)


@PROPERTY
@given(st.one_of(st.integers(0, 5000), st.integers(1 << 24, (1 << 25) - 1).map(lambda s: 1 + 1000003 * s)))
def test_radical_inverse_matches_fraction_halton(index):
    for base in (2, 3, 5, 7):
        num, den = _radical_inverse(index, base)
        u = reference_halton(index, base)
        assert F(num, den) == u
        power = 1
        while power <= index:
            power *= base
        assert den == power
        # the f64 sampler's position, tan-half-angle parameter and flip
        assert num / den == float(u)
        assert 4 * (2 * num - den) / den == float(4 * (2 * u - 1))
        assert (2 * num >= den) == (u >= F(1, 2))


@PROPERTY
@given(shipped_tables, st.sampled_from([EXACT, F64]), sampler_seeds)
def test_sample_states_match_fraction_reference(name, backend, seed):
    table = load_table(TABLES / f"{name}.table", backend)
    assert repr(sample_states(table, 6, seed)) == repr(reference_sample_states(table, 6, seed))


LSHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


@st.composite
def located_tables(draw):
    """(table corners, labels): a shipped table, the L-shape or a random
    simple lattice polygon of 3 to 6 vertices."""
    kind = draw(st.sampled_from(["shipped", "lshape", "lattice"]))
    if kind == "shipped":
        return draw(shipped_tables)
    if kind == "lshape":
        return LSHAPE
    corners = draw(st.lists(lattice_points, min_size=3, max_size=6, unique=True))
    try:
        validate_table([Point2(F(x), F(y)) for x, y in corners], range(len(corners)))
    except BilliardError:
        assume(False)
    return corners


def _located_table(spec, backend):
    if isinstance(spec, str):
        return load_table(TABLES / f"{spec}.table", backend)
    corners = [geom.point(x, y, backend) for x, y in spec]
    return validate_table(corners, [str(i) for i in range(len(spec))])


@PROPERTY
@given(located_tables(), st.sampled_from([EXACT, F64]), st.data())
def test_locate_point_matches_reference(spec, backend, data):
    table = _located_table(spec, backend)
    vs = table.vertices
    xmin, ymin, xmax, ymax = table.bounding_box()
    points = list(vs)
    for _ in range(12):
        i = data.draw(st.integers(0, table.n - 1))
        a, b = vs[i], vs[(i + 1) % table.n]
        s = data.draw(st.fractions(0, 1, max_denominator=16))
        if backend == F64:
            s = float(s)
        on_edge = Point2(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))
        x = data.draw(st.fractions(math.floor(xmin) - F(1, 2), math.ceil(xmax) + F(1, 2), max_denominator=12))
        y = data.draw(st.fractions(math.floor(ymin) - F(1, 2), math.ceil(ymax) + F(1, 2), max_denominator=12))
        points += [on_edge, geom.point(x, y, backend)]
        if backend == F64 and s > 0:
            # off the edge along its normal, k times the tolerance of
            # sign_cross(e, p - a): within it for |k| < 1, beyond it else
            k = data.draw(st.sampled_from([-2.0, -1.1, -0.9, -0.5, 0.5, 0.9, 1.1, 2.0]))
            e = b - a
            l1 = abs(e.dx) + abs(e.dy)
            off = k * geom.float_tolerance() * s * l1 * l1 / e.norm_sq()
            points.append(Point2(on_edge.x - off * e.dy, on_edge.y + off * e.dx))
    for p in points:
        assert locate_point(table, p) == reference_locate_point(table, p)


@PROPERTY
@given(shipped_tables, st.sampled_from([EXACT, F64]), sampler_seeds, st.sampled_from([1e-9, 1e-2]))
def test_sample_bounce_language_matches_reference(name, backend, seed, eps):
    # the coarse tolerance makes f64 flights end at vertices, so starts are
    # skipped as singular and resampled
    geom.set_float_tolerance(eps)
    table = load_table(TABLES / f"{name}.table", backend)
    lang = sample_bounce_language(table, 3, 8, seed)
    assert (lang.words, lang.provenance) == reference_sample_bounce_language(table, 3, 8, seed)


@st.composite
def staircases(draw):
    """Right-angled staircase of 1 to 4 steps on small integers; the
    2-step ones are L-shapes."""
    k = draw(st.integers(1, 4))
    steps = st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=True).map(sorted)
    return staircase_table(draw(steps), draw(steps))


@st.composite
def pi_triangles(draw):
    """f64 triangle with angles p1 pi/q, p2 pi/q and the rest, q <= 12."""
    q = draw(st.integers(3, 12))
    p1 = draw(st.integers(1, q - 2))
    p2 = draw(st.integers(1, q - 1 - p1))
    return pi_triangle(p1, p2, q)


@PROPERTY
@given(st.one_of(staircases(), pi_triangles()))
def test_rational_unfolding_matches_reference(table):
    ts = build_rational_unfolding(table)
    ref = reference_build_rational_unfolding(table)
    assert format_surface(ts) == format_surface(ref)
    for f in dataclasses.fields(ts):
        assert repr(getattr(ts, f.name)) == repr(getattr(ref, f.name)), f.name


@st.composite
def convex_lattice_polygons(draw):
    """A strictly convex triangle or quadrilateral on the 5 x 5 lattice, its
    corners in counterclockwise order about their centroid."""
    small = st.tuples(st.integers(0, 4), st.integers(0, 4))
    corners = draw(st.lists(small, min_size=3, max_size=4, unique=True))
    cx = F(sum(x for x, _ in corners), len(corners))
    cy = F(sum(y for _, y in corners), len(corners))
    corners.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    exact = [Point2(F(x), F(y)) for x, y in corners]
    n = len(exact)
    assume(all(orientation(exact[i - 1], exact[i], exact[(i + 1) % n]) > 0 for i in range(n)))
    return validate_table(exact, "abcd"[:n])


@PROPERTY
@given(convex_lattice_polygons())
def test_diagonals_match_reference_on_convex_tables(table):
    for vertex in range(table.n):
        got = enumerate_generalized_diagonals(table, vertex, 4)
        assert repr(got) == repr(reference_enumerate_generalized_diagonals(table, vertex, 4))


@PROPERTY
@given(staircases(), st.data())
def test_diagonals_keep_every_valid_reference_record_on_staircases(table, data):
    # the reference also reports records through walls, and its check of
    # every earlier copy's vertices drops some true diagonals: a vertex image
    # can sit on the segment where that copy is not the one being crossed
    vertex = data.draw(st.integers(0, table.n - 1))
    xmin, ymin, xmax, ymax = table.bounding_box()
    radius = F(3, 2) * max(xmax - xmin, ymax - ymin)
    got = enumerate_generalized_diagonals(table, vertex, radius, max_word_length=10)
    assert all(resimulate_diagonal(table, r) for r in got)
    reference = reference_enumerate_generalized_diagonals(table, vertex, radius, max_word_length=10)
    kept = {(r.word, r.target_image) for r in got}
    assert {(r.word, r.target_image) for r in reference if resimulate_diagonal(table, r)} <= kept
