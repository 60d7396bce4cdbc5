import math
import os
import pathlib
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import pytest

from polybounce import geom
from polybounce.analysis import DiagonalRecord
from polybounce.errors import NExceedsBound, NonPositiveLength, NotRational, UnknownVertex
from polybounce.flow import RayState, SingularHit, TrajectoryHit, trace, vertex_guard
from polybounce.geom import (
    CCW,
    CW,
    EXACT,
    PlanarIsometry,
    Point2,
    Segment,
    Vec2,
    point,
    ray_segment_hit,
    sign,
)
from polybounce.surface import UnionFind
from polybounce.table import (
    DEFAULT_ORDER_BOUND,
    INSIDE,
    ON_EDGE,
    ON_VERTEX,
    OUTSIDE,
    LabeledTable,
    _on_segment,
    classify_table,
    validate_table,
)
from polybounce.unfolding import (
    ConePointClass,
    DihedralElement,
    Gluing,
    TranslationSurface,
    _edge_direction_classes,
)

TABLES = pathlib.Path(__file__).resolve().parent.parent / "tables"
SRC = TABLES.parent / "src"


@pytest.fixture(autouse=True)
def _reset_float_tolerance():
    yield
    geom.set_float_tolerance(1e-9)


def exact_points(coords):
    return [point(x, y, EXACT) for x, y in coords]


def run_cli_process(argv, timeout):
    """``python -m polybounce.cli argv`` in a fresh interpreter on this
    checkout's ``src``, killed after ``timeout`` seconds."""
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-m", "polybounce.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


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


def reference_build_rational_unfolding(
    table: LabeledTable,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> TranslationSurface:
    """Oracle for unfolding.build_rational_unfolding: the cone points found
    by a union-find over all (copy, vertex) slots, then checked against the
    angles by Gauss-Bonnet."""
    cls = classify_table(table, order_bound=order_bound)
    if not cls.is_rational:
        raise NotRational(
            "table is not rational"
            + ("" if cls.certified else f" (no angle order <= {order_bound})")
        )
    n_lcm = cls.N
    if n_lcm > order_bound:
        raise NExceedsBound(f"N = {n_lcm} exceeds bound {order_bound}")
    n = table.n
    angles: Sequence[Fraction] = cls.angle_data
    m = _edge_direction_classes(angles, n_lcm)

    copies = [
        DihedralElement(k, flip)
        for flip in (False, True)
        for k in range(n_lcm)
    ]
    copies.sort(key=DihedralElement.sort_key)

    def partner(g: DihedralElement, j: int) -> DihedralElement:
        return g.mul_reflection(m[j], n_lcm)

    # vertex classes of the glued complex: edge e_j of copy g is identified
    # with edge e_j of partner(g, j), matching endpoints v_j and v_{j+1}
    uf = UnionFind([(g, i) for g in copies for i in range(n)])
    for g in copies:
        for j in range(n):
            h = partner(g, j)
            uf.union((g, j), (h, j))
            uf.union((g, (j + 1) % n), (h, (j + 1) % n))

    classes = uf.classes()
    cone_by_vertex: Dict[int, List[int]] = {}
    for cl in classes:
        i = cl[0][1]
        assert all(member[1] == i for member in cl)
        cone_by_vertex.setdefault(i, []).append(len(cl))
    cone_points = []
    for i in range(n):
        sizes = cone_by_vertex[i]
        assert len(set(sizes)) == 1
        sizes_each = sizes[0]
        angle_over_pi = angles[i] * sizes_each  # cone angle / pi
        cone_points.append(ConePointClass(i, angle_over_pi, len(sizes)))

    v_count = len(classes)
    e_count = n * n_lcm  # 2N copies * n edges, glued in pairs
    f_count = 2 * n_lcm
    euler = v_count - e_count + f_count
    assert euler % 2 == 0
    genus = (2 - euler) // 2

    # Gauss-Bonnet consistency of the combinatorics
    excess = sum(
        Fraction(2) - c.angle_over_pi for c in cone_points for _ in range(c.multiplicity)
    )
    assert excess == Fraction(2 * euler)

    # plane placements via a reflection spanning tree (exact backend stays exact)
    placements: Dict[DihedralElement, PlanarIsometry] = {}
    root = DihedralElement(0, False)
    placements[root] = geom.identity_isometry(table.backend)
    reflections = [geom.reflection_across(table.edge(j)) for j in range(n)]
    queue = deque([root])
    while queue:
        g = queue.popleft()
        for j in range(n):
            h = partner(g, j)
            if h in placements:
                continue
            placements[h] = geom.compose(placements[g], reflections[j])
            queue.append(h)
    assert len(placements) == 2 * n_lcm

    gluings = []
    seen = set()
    for g in copies:
        for j in range(n):
            h = partner(g, j)
            key = frozenset({(g, j), (h, j)})
            if key in seen:
                continue
            seen.add(key)
            a, b = sorted((g, h), key=DihedralElement.sort_key)
            va = placements[a].apply(table.vertices[j])
            vb = placements[b].apply(table.vertices[j])
            gluings.append(Gluing(a, b, table.labels[j], vb - va))
    gluings.sort(key=lambda gl: (gl.copy_a.sort_key(), gl.copy_b.sort_key(), gl.edge_label))

    return TranslationSurface(
        table=table,
        N=n_lcm,
        copies=tuple(copies),
        placements=placements,
        gluings=tuple(gluings),
        cone_points=tuple(cone_points),
        genus=genus,
        euler_characteristic=euler,
        is_npc=all(c.angle_over_pi >= 2 for c in cone_points),
    )


def staircase_table(xs, ys):
    """Right-angled staircase of len(xs) steps: corners (xs[-1], 0) and
    (0, ys[-1]) on the axes; xs and ys strictly increasing.  Two steps make
    an L-shape."""
    k = len(xs)
    corners = [(0, 0), (xs[-1], 0)]
    for i in range(k):
        corners.append((xs[k - 1 - i], ys[i]))
        if i < k - 1:
            corners.append((xs[k - 2 - i], ys[i]))
    corners.append((0, ys[-1]))
    labels = "abcdefghijkl"[: len(corners)]
    return validate_table(exact_points(corners), list(labels), f"stair{k}")


def pi_triangle(p1, p2, q):
    """f64 triangle with angles p1 pi/q at (0, 0) and p2 pi/q at (1, 0)."""
    alpha, beta = p1 * math.pi / q, p2 * math.pi / q
    t = math.sin(beta) / math.sin(alpha + beta)
    corners = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(t * math.cos(alpha), t * math.sin(alpha))]
    return validate_table(corners, list("abc"), f"tri{p1}_{p2}_{q}")


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

# Oracle for analysis.enumerate_generalized_diagonals: the search that
# narrowed its sectors by the gates of a corridor alone, then re-checked
# each record by its gate crossings and by every earlier copy's vertices.
# Exact on convex tables; on nonconvex ones it also reports records that
# pass through a wall.


@dataclass(frozen=True, slots=True)
class _Cone:
    """Open/closed angular sector of width < pi, apex at the source vertex."""

    lo: Vec2
    hi: Vec2
    lo_closed: bool = False
    hi_closed: bool = False

    def contains(self, d: Vec2) -> bool:
        c1 = geom.sign_cross(self.lo, d)
        if c1 < 0:
            return False
        if c1 == 0 and not (self.lo_closed and sign(self.lo.dot(d)) > 0):
            return False
        c2 = geom.sign_cross(d, self.hi)
        if c2 < 0:
            return False
        if c2 == 0 and not (self.hi_closed and sign(d.dot(self.hi)) > 0):
            return False
        return True


def _same_ray(u: Vec2, v: Vec2) -> bool:
    return geom.sign_cross(u, v) == 0 and sign(u.dot(v)) > 0


def _intersect_with_window(cone: _Cone, wa: Vec2, wb: Vec2) -> Optional[_Cone]:
    """Intersection of the cone with the open window (wa, wb), width < pi."""
    # candidate bounds are tested against the closures of both sectors
    window = _Cone(wa, wb, True, True)
    closed = _Cone(cone.lo, cone.hi, True, True)
    lo_cands = []
    if window.contains(cone.lo):
        lo_cands.append((cone.lo, cone.lo_closed))
    if closed.contains(wa):
        if _same_ray(wa, cone.lo):
            lo_cands.append((cone.lo, False))
        else:
            lo_cands.append((wa, False))
    # node cones are open at hi, so the upper bound is never closed
    hi_cands = []
    if window.contains(cone.hi):
        hi_cands.append(cone.hi)
    if closed.contains(wb):
        hi_cands.append(cone.hi if _same_ray(wb, cone.hi) else wb)
    if not lo_cands or not hi_cands:
        return None
    # the most counterclockwise lower bound
    lo, lo_closed = lo_cands[0]
    for d, cl in lo_cands[1:]:
        if _same_ray(d, lo):
            lo_closed = lo_closed and cl
        elif geom.sign_cross(lo, d) > 0:
            lo, lo_closed = d, cl
    # the most clockwise upper bound
    hi = hi_cands[0]
    for d in hi_cands[1:]:
        if geom.sign_cross(d, hi) > 0:
            hi = d
    if geom.sign_cross(lo, hi) > 0:
        return _Cone(lo, hi, lo_closed)
    return None


def _initial_cones(table: LabeledTable, vertex: int) -> List[_Cone]:
    """The interior sector at the source vertex, split into sectors < pi."""
    fwd = table.edge(vertex).direction()
    back = -table.edge((vertex - 1) % table.n).direction()
    cones = []
    lo = fwd
    lo_closed = False
    # keep splitting a quarter turn at a time until the remainder is < pi
    while not geom.sign_cross(lo, back) > 0:
        mid = lo.perp()
        cones.append(_Cone(lo, mid, lo_closed, False))
        lo, lo_closed = mid, True
    cones.append(_Cone(lo, back, lo_closed, False))
    return cones


def _segment_blocked(
    v0: Point2, target: Point2, placements: Sequence[geom.PlanarIsometry],
    table: LabeledTable,
) -> bool:
    """Does some developed vertex image lie strictly between v0 and target?"""
    d = target - v0
    dd = d.norm_sq()
    for placement in placements:
        for v in table.vertices:
            u = placement.apply(v)
            if geom.points_equal(u, v0) or geom.points_equal(u, target):
                continue
            if geom.orientation(v0, u, target) != geom.COLLINEAR:
                continue
            proj = (u - v0).dot(d)
            if sign(proj) > 0 and sign(proj - dd) < 0:
                return True
    return False


def _crossings_valid(
    v0: Point2, target: Point2, gates: Sequence[Segment]
) -> bool:
    """The segment v0 -> target must cross every gate interior, in order,
    at strictly increasing parameters inside (0, 1)."""
    d = target - v0
    prev = 0
    for gate in gates:
        e = gate.direction()
        if geom.sign_cross(d, e) == 0:
            return False
        denom = d.cross(e)
        w = gate.a - v0
        lam = w.cross(e) / denom
        sigma = w.cross(d) / denom
        if sign(sigma) <= 0 or sign(sigma - 1) >= 0:
            return False
        if sign(lam - prev) <= 0 or sign(lam - 1) >= 0:
            return False
        prev = lam
    return True


def reference_enumerate_generalized_diagonals(
    table: LabeledTable,
    source_vertex: int,
    max_length,
    max_word_length: Optional[int] = None,
) -> List[DiagonalRecord]:
    """All generalized diagonals from a vertex, up to a Euclidean length.

    Breadth-first search over the unfolding tree: each node carries the
    placement of its copy, the gates crossed so far, and the surviving open
    sector at the source vertex.  Branches die when the sector empties or
    the next gate is already beyond ``max_length``.  Every emission is
    validated against the crossing invariant (all gates crossed in order,
    through their interiors, with no earlier vertex image on the segment).
    Output is sorted by squared length, then lexicographic word.
    """
    if not 0 <= source_vertex < table.n:
        raise UnknownVertex(f"vertex index {source_vertex} out of range")
    backend = table.backend
    max_length = geom.as_scalar(max_length, backend)
    if sign(max_length) <= 0:
        raise NonPositiveLength("max_length must be positive")
    limit_sq = max_length * max_length
    v0 = table.vertices[source_vertex]
    records: List[DiagonalRecord] = []

    # node: (placement, word, last edge index, cone, gates, placements chain)
    start_placement = geom.identity_isometry(backend)
    queue = deque(
        (start_placement, (), None, cone, (), (start_placement,))
        for cone in _initial_cones(table, source_vertex)
    )
    reflections = [geom.reflection_across(table.edge(j)) for j in range(table.n)]

    while queue:
        placement, word, last_edge, cone, gates, chain = queue.popleft()
        # emit reachable vertex images of this copy
        for v in table.vertices:
            target = placement.apply(v)
            if geom.points_equal(target, v0):
                continue
            d = target - v0
            if sign(d.norm_sq() - limit_sq) > 0:
                continue
            if not cone.contains(d):
                continue
            if not _crossings_valid(v0, target, gates):
                continue
            if _segment_blocked(v0, target, chain, table):
                continue
            records.append(
                DiagonalRecord(word, source_vertex, target, d.norm_sq())
            )
        if max_word_length is not None and len(word) >= max_word_length:
            continue
        for j in range(table.n):
            if j == last_edge:
                continue
            gate = placement.apply_segment(table.edge(j))
            wa = gate.a - v0
            wb = gate.b - v0
            if wa.is_zero() or wb.is_zero():
                continue
            ori = geom.sign_cross(wa, wb)
            if ori == 0:
                continue
            if ori < 0:
                wa, wb = wb, wa
            narrowed = _intersect_with_window(cone, wa, wb)
            if narrowed is None:
                continue
            if sign(geom.point_segment_distance_sq(v0, gate) - limit_sq) > 0:
                continue
            child = geom.compose(placement, reflections[j])
            queue.append(
                (
                    child,
                    word + (table.labels[j],),
                    j,
                    narrowed,
                    gates + (gate,),
                    chain + (child,),
                )
            )

    # emitted sectors never overlap, but equal-length records need a fixed order
    records.sort(key=lambda r: (r.length_sq, r.word))
    return records
