"""Unfolding engines.

Two constructions:

* the reflected-copy corridor along a word ("laundry line"): copies
  G_0 = id, G_k = G_{k-1} o rho_{a_k}, where rho_e reflects across the line
  of edge e in original table coordinates; gate_k = G_{k-1}(edge a_k) is the
  shared wall between consecutive copies;

* the canonical rational unfolding into a translation surface: 2N labeled
  copies indexed by the dihedral group D_N (N = lcm of the reduced angle
  denominators), glued edge-to-edge by translations.  The copy/gluing
  combinatorics is computed symbolically from edge direction classes mod
  pi/N; plane placements come from an exact reflection spanning tree, so
  every gluing translation is exact on the exact backend.  The cone points
  follow from the angles (Masur and Tabachnikov, "Rational billiards and
  flat structures", 2002): a vertex of angle (p/q) pi, in lowest terms,
  gives N/q cone points, each of angle 2 p pi.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import geom
from .errors import (
    NExceedsBound,
    NotRational,
    RepeatedLabel,
    SingularTrajectory,
    UnknownLabel,
)
from .flow import Trajectory
from .geom import PlanarIsometry, Point2, Segment, Vec2
from .table import DEFAULT_ORDER_BOUND, LabeledTable, classify_table


@dataclass(frozen=True, slots=True)
class UnfoldingCorridor:
    table: LabeledTable
    word: Tuple[str, ...]
    copies: Tuple[PlanarIsometry, ...]  # G_0 .. G_m
    gates: Tuple[Segment, ...]  # gate_k = G_{k-1}(edge a_k)

    @property
    def composite(self) -> PlanarIsometry:
        return self.copies[-1]


def unfold_word(table: LabeledTable, word: Sequence[str]) -> UnfoldingCorridor:
    """Corridor of reflected copies along ``word``."""
    word = tuple(word)
    prev = None
    for sym in word:
        if sym not in table.labels:
            raise UnknownLabel(f"no edge labeled {sym!r}")
        if sym == prev:
            raise RepeatedLabel(f"label {sym!r} repeated consecutively")
        prev = sym
    g = geom.identity_isometry(table.backend)
    copies = [g]
    gates = []
    for sym in word:
        edge = table.edge(table.edge_index(sym))
        gates.append(g.apply_segment(edge))
        g = geom.compose(g, geom.reflection_across(edge))
        copies.append(g)
    return UnfoldingCorridor(table, word, tuple(copies), tuple(gates))


def develop_trajectory(traj: Trajectory):
    """Straighten a nonsingular trajectory along its corridor.

    Returns (corridor, developed_points) where developed point k is
    G_k(hit_k); these are collinear along the original direction.
    """
    if traj.is_singular:
        raise SingularTrajectory("cannot develop a singular trajectory")
    word = tuple(h.edge_label for h in traj.hits)
    corridor = unfold_word(traj.table, word)
    developed = tuple(
        corridor.copies[k].apply(traj.hits[k].point) for k in range(len(word))
    )
    return corridor, developed


def fold_back(corridor: UnfoldingCorridor, developed: Sequence[Point2]):
    """Inverse of develop_trajectory on the hit points."""
    return tuple(
        corridor.copies[k].inverse().apply(p) for k, p in enumerate(developed)
    )


def development_collinear(start: Point2, developed: Sequence[Point2]) -> bool:
    pts = [start, *developed]
    for i in range(len(pts) - 2):
        if geom.orientation(pts[0], pts[i + 1], pts[i + 2]) != geom.COLLINEAR:
            return False
    return True


# ---------------------------------------------------------------------------
# rational unfolding


@dataclass(frozen=True, slots=True)
class DihedralElement:
    """rot(2*pi*k/N) composed with an optional base reflection."""

    rot: int
    flip: bool

    def mul_reflection(self, m: int, n: int) -> "DihedralElement":
        # right-multiply by the reflection with axis class m
        if self.flip:
            return DihedralElement((self.rot - m) % n, False)
        return DihedralElement((self.rot + m) % n, True)

    @property
    def name(self) -> str:
        return f"r{self.rot}f" if self.flip else f"r{self.rot}"

    def sort_key(self):
        return (self.flip, self.rot)


@dataclass(frozen=True, slots=True)
class Gluing:
    copy_a: DihedralElement
    copy_b: DihedralElement
    edge_label: str
    translation: Vec2  # carries the edge of copy_a onto the edge of copy_b


@dataclass(frozen=True, slots=True)
class ConePointClass:
    vertex_index: int
    angle_over_pi: Fraction  # cone angle as a multiple of pi (= 2 p_i)
    multiplicity: int  # number of such cone points (= N / q_i)

    @property
    def exceeds_two_pi(self) -> bool:
        return self.angle_over_pi > 2


@dataclass(frozen=True, slots=True)
class TranslationSurface:
    table: LabeledTable
    N: int
    copies: Tuple[DihedralElement, ...]
    placements: Dict[DihedralElement, PlanarIsometry]
    gluings: Tuple[Gluing, ...]
    cone_points: Tuple[ConePointClass, ...]
    genus: int
    euler_characteristic: int
    is_npc: bool  # every cone angle >= 2*pi

    @property
    def strict_cone_condition(self) -> bool:
        """Every vertex class has cone angle strictly more than 2*pi."""
        return all(c.exceeds_two_pi for c in self.cone_points)


def _edge_direction_classes(angles: Sequence[Fraction], n_lcm: int) -> List[int]:
    """Direction class m_j of edge j (multiples of pi/N mod N), from m_0 = 0;
    crossing vertex j turns the edge line by -angle_j mod pi."""
    n = len(angles)
    classes = [0] * n
    for j in range(1, n):
        a_j = int(angles[j] * n_lcm)  # angle_j = a_j * pi / N
        classes[j] = (classes[j - 1] - a_j) % n_lcm
    return classes


def build_rational_unfolding(
    table: LabeledTable,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> TranslationSurface:
    """Canonical translation-surface unfolding of a rational table."""
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

    # with the cone points below, Gauss-Bonnet holds iff sum(angles) = n - 2
    assert sum(angles) == n - 2, "inconsistent angle sum"
    cone_points = [
        ConePointClass(i, Fraction(2 * a.numerator), n_lcm // a.denominator)
        for i, a in enumerate(angles)
    ]
    # V - E + F with E = n N (2N copies, n edges each, glued in pairs), F = 2N
    euler = sum(c.multiplicity for c in cone_points) - n * n_lcm + 2 * n_lcm
    genus = (2 - euler) // 2

    copies = [
        DihedralElement(k, flip)
        for flip in (False, True)
        for k in range(n_lcm)
    ]

    def partner(g: DihedralElement, j: int) -> DihedralElement:
        return g.mul_reflection(m[j], n_lcm)

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

    # partner() always flips, so each glued pair has one unflipped copy
    gluings = []
    for a in copies[:n_lcm]:
        for j in range(n):
            b = partner(a, j)
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


def format_surface(surface: TranslationSurface) -> str:
    """Line-based surface export.

    surface <name> copies <2N> genus <g>
    cone <angle/pi> x<multiplicity>      (aggregated over vertex classes)
    glue <copy>.<edge> <copy>.<edge> <tx> <ty>
    """
    lines = [
        f"surface {surface.table.name} copies {2 * surface.N} genus {surface.genus}"
    ]
    totals: Dict[Fraction, int] = {}
    for c in surface.cone_points:
        totals[c.angle_over_pi] = totals.get(c.angle_over_pi, 0) + c.multiplicity
    for angle in sorted(totals):
        lines.append(f"cone {geom.format_scalar(angle)} x{totals[angle]}")
    for gl in surface.gluings:
        lines.append(
            f"glue {gl.copy_a.name}.{gl.edge_label} {gl.copy_b.name}.{gl.edge_label} "
            f"{geom.format_scalar(gl.translation.dx)} {geom.format_scalar(gl.translation.dy)}"
        )
    return "\n".join(lines) + "\n"
