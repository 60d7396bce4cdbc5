"""Labeled billiard tables: validation, classification, affine transforms.

A table is a simple polygon with CCW vertices and pairwise-distinct edge
labels; labels[i] names the edge vertices[i] -> vertices[i+1 mod n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import geom
from .errors import (
    DegenerateEdge,
    DuplicateLabel,
    LabelCountMismatch,
    ParseError,
    SelfIntersecting,
    SingularMatrix,
)
from .geom import CCW, CW, COLLINEAR, Point2, Segment, sign

# largest denominator q when snapping an f64 angle to p/q * pi, and the largest
# N build_rational_unfolding accepts; exact classification needs no bound
DEFAULT_ORDER_BOUND = 720

INSIDE = "inside"
OUTSIDE = "outside"
ON_EDGE = "on_edge"
ON_VERTEX = "on_vertex"


@dataclass(frozen=True, slots=True)
class LabeledTable:
    vertices: Tuple[Point2, ...]
    labels: Tuple[str, ...]
    name: str = "table"

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def backend(self) -> str:
        return self.vertices[0].backend

    def edge(self, i: int) -> Segment:
        v = self.vertices
        return Segment(v[i % self.n], v[(i + 1) % self.n])

    def edges(self):
        return [self.edge(i) for i in range(self.n)]

    def edge_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            from .errors import UnknownLabel

            raise UnknownLabel(f"no edge labeled {label!r}") from None

    def bounding_box(self):
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True, slots=True)
class TableClass:
    is_right_angled: bool
    is_rational: bool
    # per-vertex interior angles: Fractions (multiples of pi) when rational,
    # floats (radians) otherwise
    angle_data: tuple
    N: Optional[int]
    # True for every exact answer, which is a certificate; False for every
    # f64 answer, which is a tolerance snap
    certified: bool = True


def signed_area_doubled(vertices: Sequence[Point2]):
    total = 0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def _on_segment(p: Point2, seg: Segment) -> bool:
    if geom.orientation(seg.a, seg.b, p) != COLLINEAR:
        return False
    e = seg.b - seg.a
    proj = (p - seg.a).dot(e)
    return sign(proj) >= 0 and sign(proj - e.norm_sq()) <= 0


def _segments_touch(s1: Segment, s2: Segment) -> bool:
    """True when the closed segments share any point."""
    o1 = geom.orientation(s1.a, s1.b, s2.a)
    o2 = geom.orientation(s1.a, s1.b, s2.b)
    o3 = geom.orientation(s2.a, s2.b, s1.a)
    o4 = geom.orientation(s2.a, s2.b, s1.b)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    for p, seg in ((s2.a, s1), (s2.b, s1), (s1.a, s2), (s1.b, s2)):
        if _on_segment(p, seg):
            return True
    return False


def locate_point(table: LabeledTable, p: Point2):
    """(INSIDE|OUTSIDE|ON_EDGE|ON_VERTEX, index) with the edge/vertex index."""
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


def validate_table(
    vertices: Sequence[Point2],
    labels: Sequence[str],
    name: str = "table",
) -> LabeledTable:
    """Check simplicity/orientation/labels; CW input is reversed to CCW."""
    n = len(vertices)
    if n < 3:
        raise DegenerateEdge("a table needs at least 3 vertices")
    if len(labels) != n:
        raise LabelCountMismatch(f"{n} edges but {len(labels)} labels")
    if len(set(labels)) != n:
        seen = set()
        dup = next(l for l in labels if l in seen or seen.add(l))
        raise DuplicateLabel(f"label {dup!r} used twice")
    vertices = tuple(vertices)
    geom.shared_backend(*[c for v in vertices for c in (v.x, v.y)])

    for i in range(n):
        if geom.points_equal(vertices[i], vertices[(i + 1) % n]):
            raise DegenerateEdge(f"edge {i} has zero length")

    area2 = signed_area_doubled(vertices)
    if sign(area2) == 0:
        raise SelfIntersecting("polygon has zero area")
    if sign(area2) < 0:
        # reverse to CCW, keeping each label on its geometric edge
        edges = [
            (vertices[(i + 1) % n], vertices[i], labels[i]) for i in range(n)
        ]
        edges.reverse()
        vertices = tuple(e[0] for e in edges)
        labels = [e[2] for e in edges]

    table = LabeledTable(vertices, tuple(labels), name)

    # angle 0 / 2*pi: consecutive edges folding straight back
    for i in range(n):
        u = table.edge((i - 1) % n).direction()
        v = table.edge(i).direction()
        if geom.sign_cross(u, v) == 0 and sign(u.dot(v)) < 0:
            raise SelfIntersecting(f"zero interior angle at vertex {i}")

    # simplicity: non-adjacent edges must not touch at all
    for i in range(n):
        si = table.edge(i)
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_touch(si, table.edge(j)):
                raise SelfIntersecting(f"edges {i} and {j} intersect")
    return table


def _interior_angle_vectors(table: LabeledTable, i: int):
    """(v, w): directions spanning the interior angle at vertex i, from the
    outgoing edge direction v CCW to the backward incoming direction w."""
    v = table.edge(i).direction()
    w = -table.edge((i - 1) % table.n).direction()
    return v, w


def interior_angle_radians(table: LabeledTable, i: int) -> float:
    v, w = _interior_angle_vectors(table, i)
    ang = math.atan2(float(v.cross(w)), float(v.dot(w)))
    if ang <= 0:
        ang += 2 * math.pi
    return ang


# interior angle / (pi/4) by the octant of (sign dot, sign cross); the zero
# angle (1, 0) is rejected by validate_table
_OCTANT_QUARTERS = {
    (1, 1): 1, (0, 1): 2, (-1, 1): 3, (-1, 0): 4,
    (-1, -1): 5, (0, -1): 6, (1, -1): 7,
}


def classify_table(
    table: LabeledTable,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> TableClass:
    """Right-angled / rational classification.

    Exact backend, by theorem: for rational edge vectors v, w the doubled
    angle e^{2i theta} lies in Q(i), whose only roots of unity are +-1 and
    +-i.  So theta is a rational multiple of pi iff it is a multiple of
    pi/4, i.e. iff dot == 0, cross == 0 or |dot| == |cross|; the octant of
    (sign dot, sign cross) gives the multiple.  Exact answers are always
    certificates.  The f64 backend snaps each angle to p/q with
    q <= order_bound within the tolerance; its answers never are.
    """
    exact = table.backend == geom.EXACT
    angles = tuple(interior_angle_radians(table, i) for i in range(table.n))
    multiples = []
    if exact:
        right = True
        for i in range(table.n):
            v, w = _interior_angle_vectors(table, i)
            dot, cross = v.dot(w), v.cross(w)
            on_axis = dot == 0 or cross == 0
            right = right and on_axis
            if on_axis or abs(dot) == abs(cross):
                quarters = _OCTANT_QUARTERS[sign(dot), sign(cross)]
                multiples.append(Fraction(quarters, 4))
            else:
                multiples.append(None)
    else:
        eps = geom.float_tolerance()
        half_pi = math.pi / 2
        right = all(
            abs(a - round(a / half_pi) * half_pi) <= eps * max(1.0, a)
            for a in angles
        )
        # tolerance snap to p/q multiples of pi; never a certificate
        for a in angles:
            frac = Fraction(a / math.pi).limit_denominator(order_bound)
            close = frac > 0 and abs(a - float(frac) * math.pi) <= eps * max(1.0, a)
            multiples.append(frac if close else None)
    if all(m is not None for m in multiples):
        n_lcm = math.lcm(*(m.denominator for m in multiples))
        return TableClass(right, True, tuple(multiples), n_lcm, certified=exact)
    return TableClass(right, False, angles, None, certified=exact)


def transform_table(
    table: LabeledTable,
    matrix: Sequence[Sequence[geom.Scalar]],
    offset: Sequence[geom.Scalar] = (0, 0),
) -> LabeledTable:
    """x |-> A x + b on the vertices; CCW is restored when det(A) < 0."""
    backend = table.backend
    a00 = geom.as_scalar(matrix[0][0], backend)
    a01 = geom.as_scalar(matrix[0][1], backend)
    a10 = geom.as_scalar(matrix[1][0], backend)
    a11 = geom.as_scalar(matrix[1][1], backend)
    bx = geom.as_scalar(offset[0], backend)
    by = geom.as_scalar(offset[1], backend)
    det = a00 * a11 - a01 * a10
    if sign(det, max(1, abs(a00) + abs(a01) + abs(a10) + abs(a11))) == 0:
        raise SingularMatrix("transform matrix is singular")
    mapped = [
        Point2(a00 * v.x + a01 * v.y + bx, a10 * v.x + a11 * v.y + by)
        for v in table.vertices
    ]
    return validate_table(mapped, table.labels, table.name)


# ---------------------------------------------------------------------------
# table file format:
#   table <name>
#   vertex <x> <y>          (one per vertex, in order)
#   labels <l1> ... <ln>
# numbers follow the shared literal grammar; '#' starts a comment


def strip_comment(line: str) -> str:
    idx = line.find("#")
    if idx >= 0:
        line = line[:idx]
    return line.strip()


def parse_table_text(text: str, backend: str) -> LabeledTable:
    name = "table"
    vertices = []
    labels = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comment(raw)
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "table":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'table <name>'")
            name = parts[1]
        elif kind == "vertex":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'vertex <x> <y>'")
            vertices.append(
                Point2(
                    geom.parse_scalar(parts[1], backend),
                    geom.parse_scalar(parts[2], backend),
                )
            )
        elif kind == "labels":
            labels = parts[1:]
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    if labels is None:
        raise ParseError("missing 'labels' line")
    return validate_table(vertices, labels, name)


def load_table(path: str, backend: str) -> LabeledTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table_text(fh.read(), backend)


def format_table(table: LabeledTable) -> str:
    lines = [f"table {table.name}"]
    for v in table.vertices:
        lines.append(f"vertex {geom.format_scalar(v.x)} {geom.format_scalar(v.y)}")
    lines.append("labels " + " ".join(table.labels))
    return "\n".join(lines) + "\n"
