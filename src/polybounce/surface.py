"""Edge-paired polygon surfaces and cutting sequences.

A glued polygon pairs each edge label with exactly one other label via an
orientation-preserving isometry that reverses boundary direction, producing
an oriented cone surface.  Cutting sequences record, at each crossing, the
label of the edge the trajectory hits (the side at which it enters the
glued wall), then continue from the paired edge.  A billiard table is the
glued polygon whose every edge is glued to itself by a reflection, so
cutting sequences and billiard traces run the same flight loop,
``flow.fly``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import geom
from .errors import (
    DegenerateDirection,
    GluingMismatch,
    LengthMismatch,
    OrientationClash,
    ParseError,
    StartOutsidePolygon,
    UnpairedEdge,
)
from .flow import RayState, fly
from .geom import PlanarIsometry, Point2, Segment, Vec2, sign
from .table import (
    INSIDE,
    LabeledTable,
    classify_table,
    interior_angle_radians,
    locate_point,
    parse_table_text,
    strip_comment,
    validate_table,
)


class UnionFind:
    """Disjoint sets over hashable items."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        groups: Dict[object, list] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


@dataclass(frozen=True, slots=True)
class EdgePairing:
    label_a: str
    label_b: str
    iso: PlanarIsometry  # carries edge(label_a) onto edge(label_b)


@dataclass(frozen=True, slots=True)
class VertexClass:
    members: Tuple[int, ...]
    total_angle_rad: float
    total_angle_over_pi: Optional[Fraction]  # exact when the angles are rational


@dataclass(frozen=True, slots=True)
class GluedPolygon:
    polygon: LabeledTable
    pairings: Tuple[EdgePairing, ...]
    vertex_classes: Tuple[VertexClass, ...]

    def directed_map(self) -> Dict[str, Tuple[str, PlanarIsometry]]:
        out = {}
        for p in self.pairings:
            out[p.label_a] = (p.label_b, p.iso)
            out[p.label_b] = (p.label_a, p.iso.inverse())
        return out

    def double_labels(self) -> Dict[str, Tuple[str, str]]:
        """Per edge: (enter_label, exit_label) across its glued wall."""
        return {
            label: (label, other) for label, (other, _) in self.directed_map().items()
        }

    def pairing_relation(self) -> frozenset:
        return frozenset(frozenset((p.label_a, p.label_b)) for p in self.pairings)


def validate_glued_polygon(
    vertices: Sequence[Point2],
    labels: Sequence[str],
    pairings: Sequence[Tuple[str, str, PlanarIsometry]],
    name: str = "surface",
) -> GluedPolygon:
    """Validate polygon + pairing; computes total angle per vertex class."""
    polygon = validate_table(vertices, labels, name)
    counts = {label: 0 for label in polygon.labels}
    for la, lb, _ in pairings:
        for l in (la, lb):
            if l not in counts:
                raise UnpairedEdge(f"pairing names unknown label {l!r}")
            counts[l] += 1
        if la == lb:
            raise UnpairedEdge(f"label {la!r} paired with itself")
    bad = [l for l, c in counts.items() if c != 1]
    if bad:
        raise UnpairedEdge(f"labels not paired exactly once: {', '.join(sorted(bad))}")

    checked = []
    for la, lb, iso in pairings:
        if sign(iso.det() - 1) != 0:
            raise OrientationClash(
                f"pairing {la}-{lb}: isometry must preserve plane orientation"
            )
        ea = polygon.edge(polygon.edge_index(la))
        eb = polygon.edge(polygon.edge_index(lb))
        if not geom.scalars_equal(ea.length_sq(), eb.length_sq()):
            raise LengthMismatch(f"edges {la!r} and {lb!r} have different lengths")
        img_a = iso.apply(ea.a)
        img_b = iso.apply(ea.b)
        if geom.points_equal(img_a, eb.b) and geom.points_equal(img_b, eb.a):
            checked.append(EdgePairing(la, lb, iso))
        elif geom.points_equal(img_a, eb.a) and geom.points_equal(img_b, eb.b):
            raise OrientationClash(
                f"pairing {la}-{lb} preserves boundary orientation"
            )
        else:
            raise GluingMismatch(
                f"pairing {la}-{lb}: isometry does not carry {la!r} onto {lb!r}"
            )

    # vertex classes of the gluing: edge A: v_i -> v_{i+1}, edge B: v_j -> v_{j+1};
    # the orientation-reversing identification matches i ~ j+1 and i+1 ~ j
    n = polygon.n
    uf = UnionFind(range(n))
    for p in checked:
        i = polygon.edge_index(p.label_a)
        j = polygon.edge_index(p.label_b)
        uf.union(i, (j + 1) % n)
        uf.union((i + 1) % n, j)

    exact_angles = None
    if polygon.backend == geom.EXACT:
        cls = classify_table(polygon)
        if cls.is_rational:
            exact_angles = cls.angle_data
    classes = []
    for members in sorted(uf.classes()):
        rad = sum(interior_angle_radians(polygon, i) for i in members)
        over_pi = None
        if exact_angles is not None:
            over_pi = sum((exact_angles[i] for i in members), Fraction(0))
        classes.append(VertexClass(tuple(members), rad, over_pi))
    return GluedPolygon(polygon, tuple(checked), tuple(classes))


def combinatorially_equivalent(s1: GluedPolygon, s2: GluedPolygon) -> bool:
    """Equal label sets and identical pairing-induced label relations."""
    if set(s1.polygon.labels) != set(s2.polygon.labels):
        return False
    return s1.pairing_relation() == s2.pairing_relation()


@dataclass(frozen=True, slots=True)
class CuttingWord:
    symbols: Tuple[str, ...]
    singular: bool = False
    # straight chords inside the polygon, one per flight, for rendering
    chords: Tuple[Segment, ...] = ()

    def __len__(self) -> int:
        return len(self.symbols)


def cutting_sequence(
    gp: GluedPolygon, start: Point2, d: Vec2, crossings: int
) -> CuttingWord:
    """Trace a straight line through the glued surface for ``crossings``
    wall crossings, recording the entered label each time; terminates early
    with the singular flag on a vertex hit."""
    polygon = gp.polygon

    def check_start():
        if d.is_zero():
            raise DegenerateDirection("zero direction")
        kind, _ = locate_point(polygon, start)
        if kind != INSIDE:
            raise StartOutsidePolygon("start must be strictly inside the polygon")

    directed = gp.directed_map()
    gluing = []
    for label in polygon.labels:
        other, iso = directed[label]
        gluing.append((polygon.edge_index(other), iso))
    state = RayState(start, geom.renormalized(d), polygon)
    hits, ends, singular = fly(state, crossings, check_start, gluing, StartOutsidePolygon)
    # a chord runs from where a flight starts to the boundary point it hits
    starts = [start] + [h.point for h in hits]
    return CuttingWord(
        tuple(h.edge_label for h in hits),
        singular is not None,
        tuple(Segment(a, b) for a, b in zip(starts, ends)),
    )


# ---------------------------------------------------------------------------
# glued-polygon file format: table directives plus pairing lines
#   pair <labelA> <labelB> translate <tx> <ty>
#   pair <labelA> <labelB> rotate <p>/<q>pi about <x> <y>


def _parse_rotation_angle(token: str) -> Fraction:
    if not token.endswith("pi"):
        raise ParseError(f"rotation angle must end in 'pi': {token!r}")
    body = token[:-2]
    if not body or body == "+":
        frac = Fraction(1)
    elif body == "-":
        frac = Fraction(-1)
    else:
        try:
            frac = Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rotation multiple {token!r}") from exc
    return frac


def parse_glued_polygon_text(text: str, backend: str) -> GluedPolygon:
    table_lines = []
    pair_specs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comment(raw)
        if not line:
            continue
        parts = line.split()
        if parts[0] != "pair":
            table_lines.append(line)
            continue
        if len(parts) < 4:
            raise ParseError(f"line {lineno}: malformed pair line")
        if parts[3] == "translate":
            if len(parts) != 6:
                raise ParseError(f"line {lineno}: expected 'pair A B translate tx ty'")
            v = Vec2(
                geom.parse_scalar(parts[4], backend),
                geom.parse_scalar(parts[5], backend),
            )
            pair_specs.append((parts[1], parts[2], geom.translation(v)))
        elif parts[3] == "rotate":
            if len(parts) != 8 or parts[5] != "about":
                raise ParseError(
                    f"line {lineno}: expected 'pair A B rotate p/qpi about x y'"
                )
            multiple = _parse_rotation_angle(parts[4])
            center = Point2(
                geom.parse_scalar(parts[6], backend),
                geom.parse_scalar(parts[7], backend),
            )
            if backend == geom.EXACT:
                quarters = multiple * 2
                if quarters.denominator != 1:
                    raise ParseError(
                        f"line {lineno}: exact backend supports only multiples "
                        "of pi/2; use --backend f64 for other angles"
                    )
                iso = geom.rotation_quarter_turns(int(quarters), center)
            else:
                iso = geom.rotation_radians(float(multiple) * math.pi, center)
            pair_specs.append((parts[1], parts[2], iso))
        else:
            raise ParseError(f"line {lineno}: unknown pairing kind {parts[3]!r}")
    polygon = parse_table_text("\n".join(table_lines), backend)
    return validate_glued_polygon(
        polygon.vertices, polygon.labels, pair_specs, polygon.name
    )


def load_glued_polygon(path: str, backend: str) -> GluedPolygon:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_glued_polygon_text(fh.read(), backend)
