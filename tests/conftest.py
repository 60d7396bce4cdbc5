import math
import pathlib
from collections import deque
from fractions import Fraction
from typing import Dict, List, Sequence

import pytest

from polybounce import geom
from polybounce.errors import NExceedsBound, NotRational
from polybounce.flow import RayState, SingularHit, TrajectoryHit, trace, vertex_guard
from polybounce.geom import (
    CCW,
    CW,
    EXACT,
    PlanarIsometry,
    Point2,
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
