"""Billiard flow: trajectory tracing, bounce words, padded-word utilities.

A billiard is the glued polygon whose every edge is glued to itself by the
reflection across it (Masur-Tabachnikov), so ``trace`` and the cutting
sequences of ``surface`` share one flight loop, ``fly``.

Corner policy: a trajectory meeting a vertex terminates as singular; no
reflection rule is invented at corners.  In float mode a hit within the
tolerance of a vertex is treated the same way, because misclassifying a
near-corner pass corrupts every later symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Type

from . import geom
from .errors import (
    DegenerateDirection,
    NonIntervalSupport,
    StartOutsideTable,
)
from .geom import Point2, Vec2, sign
from .table import (
    ON_EDGE,
    ON_VERTEX,
    OUTSIDE,
    LabeledTable,
    locate_point,
)

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True, slots=True)
class RayState:
    position: Point2
    direction: Vec2
    table: LabeledTable


@dataclass(frozen=True, slots=True)
class SingularHit:
    t: geom.Scalar
    vertex_index: int


@dataclass(frozen=True, slots=True)
class TrajectoryHit:
    edge_label: str
    point: Point2
    direction: Vec2  # direction after the bounce


@dataclass(frozen=True, slots=True)
class Trajectory:
    start: RayState
    hits: Tuple[TrajectoryHit, ...]
    terminated_by: Optional[SingularHit]  # None: the bounce budget ran out
    time_direction: str = FORWARD

    @property
    def is_singular(self) -> bool:
        return self.terminated_by is not None

    @property
    def table(self) -> LabeledTable:
        return self.start.table


@dataclass(frozen=True, slots=True)
class BounceWord:
    symbols: Tuple[str, ...]
    direction: str = FORWARD
    singular: bool = False

    def __len__(self) -> int:
        return len(self.symbols)


def in_interior_cone(back: Vec2, fwd: Vec2, d: Vec2) -> bool:
    """Is d strictly inside the interior angle spanned CCW from fwd to back?

    back points along the incoming edge reversed, fwd along the outgoing
    edge; handles reflex angles (sweep > pi).
    """
    c_span = geom.sign_cross(fwd, back)
    c1 = geom.sign_cross(fwd, d)
    c2 = geom.sign_cross(d, back)
    if c_span > 0:
        return c1 > 0 and c2 > 0
    if c_span == 0:
        if sign(fwd.dot(back)) > 0:
            # zero angle: no interior
            return False
        return c1 > 0  # straight vertex: interior is the left half-plane
    # reflex: complement cone (back -> fwd, sweep < pi) must not contain d
    inside_complement = c1 <= 0 and c2 <= 0
    return not inside_complement


def _check_start(state: RayState) -> None:
    table = state.table
    d = state.direction
    if d.is_zero():
        raise DegenerateDirection("zero start direction")
    kind, idx = locate_point(table, state.position)
    if kind == OUTSIDE:
        raise StartOutsideTable("start position outside the table")
    if kind == ON_EDGE:
        # d points inward iff it turns left from the CCW edge
        s = geom.sign_cross(table.edge(idx).direction(), d)
        if s == 0:
            raise DegenerateDirection("grazing start along an edge")
        if s < 0:
            raise StartOutsideTable("start direction points out of the table")
    elif kind == ON_VERTEX:
        back = -table.edge((idx - 1) % table.n).direction()
        fwd = table.edge(idx).direction()
        if not in_interior_cone(back, fwd, d):
            raise DegenerateDirection(
                "start at a vertex must aim strictly into the interior"
            )


def vertex_guard(table: LabeledTable, edge_idx: int, hit: geom.Hit) -> Optional[int]:
    """Vertex index when the hit is at (or, in float mode, within eps of) an
    endpoint of the hit edge; None for a clean interior hit."""
    a = table.vertices[edge_idx]
    b = table.vertices[(edge_idx + 1) % table.n]
    if hit.where == geom.ENDPOINT_A:
        return edge_idx
    if hit.where == geom.ENDPOINT_B:
        return (edge_idx + 1) % table.n
    if isinstance(hit.point.x, float):
        eps = geom.float_tolerance()
        for idx, v in ((edge_idx, a), ((edge_idx + 1) % table.n, b)):
            scale = max(1.0, abs(v.x), abs(v.y))
            if abs(hit.point.x - v.x) <= eps * scale and abs(
                hit.point.y - v.y
            ) <= eps * scale:
                return idx
    return None


def fly(
    state: RayState,
    steps: int,
    check_start: Callable[[], None],
    gluing: Sequence[Tuple[int, geom.PlanarIsometry]],
    escape: Type[Exception],
) -> Tuple[List[TrajectoryHit], List[Point2], Optional[SingularHit]]:
    """Straight flight from ``state`` through at most ``steps`` glued edges.

    ``gluing[i] = (j, iso)``: the flight leaving through edge i re-enters
    through edge j, mapped by ``iso``.  ``check_start`` validates the start
    after the step count.  Returns the crossings (entered label, position
    and direction after the crossing), the boundary point each leg ends at
    (one more than the crossings when the flight ends at a vertex), and the
    singular hit or None.
    """
    if steps < 0:
        raise ValueError("step count must be >= 0")
    check_start()
    table, pos, d = state.table, state.position, state.direction
    edges = table.edges()
    labels = table.labels
    hits: List[TrajectoryHit] = []
    ends: List[Point2] = []
    for _ in range(steps):
        best = geom.first_hit(pos, d, edges)
        if best is None:
            raise escape("ray escaped the polygon (inconsistent state)")
        i, h = best
        ends.append(h.point)
        v_idx = vertex_guard(table, i, h)
        if v_idx is not None:
            return hits, ends, SingularHit(h.t, v_idx)
        j, iso = gluing[i]
        d = geom.renormalized(iso.apply_vec(d))
        # an edge glued to itself is a mirror, which fixes the hit point
        pos = h.point if j == i else iso.apply(h.point)
        hits.append(TrajectoryHit(labels[i], pos, d))
    return hits, ends, None


def trace(state: RayState, max_bounces: int) -> Trajectory:
    """Deterministic forward trace for at most ``max_bounces`` reflections."""
    edges = state.table.edges()
    mirrors = [(i, geom.reflection_across(e)) for i, e in enumerate(edges)]
    hits, _, singular = fly(
        state, max_bounces, lambda: _check_start(state), mirrors, StartOutsideTable
    )
    return Trajectory(state, tuple(hits), singular)


def trace_backward(state: RayState, max_bounces: int) -> Trajectory:
    """Trace with the direction reversed; hits carry indices -1, -2, ..."""
    rev = RayState(state.position, -state.direction, state.table)
    traj = trace(rev, max_bounces)
    return Trajectory(state, traj.hits, traj.terminated_by, BACKWARD)


def bounce_word(traj: Trajectory) -> BounceWord:
    """Edge labels of the hits, in order; empty word for zero hits."""
    return BounceWord(
        tuple(h.edge_label for h in traj.hits),
        traj.time_direction,
        traj.is_singular,
    )


# ---------------------------------------------------------------------------
# padded words over the alphabet A_0 = A + {0}; 0 is represented by None

PAD = None


@dataclass(frozen=True)
class PaddedWord:
    """Bi-infinite sequence over A_0 that is nonzero exactly on an interval.

    lo/hi bound the support interval; None means unbounded on that side.
    ``window`` stores the known symbols (keys inside the support).
    """

    lo: Optional[int]
    hi: Optional[int]
    window: Tuple[Tuple[int, str], ...] = field(default=())
    empty: bool = False

    @staticmethod
    def from_entries(entries: dict) -> "PaddedWord":
        support = sorted(i for i, s in entries.items() if s is not PAD)
        if not support:
            return PaddedWord(None, None, (), empty=True)
        lo, hi = support[0], support[-1]
        if len(support) != hi - lo + 1:
            raise NonIntervalSupport("nonzero entries do not form an interval")
        window = tuple((i, entries[i]) for i in support)
        return PaddedWord(lo, hi, window)

    @staticmethod
    def finite(symbols, start: int = 0) -> "PaddedWord":
        symbols = tuple(symbols)
        if not symbols:
            return PaddedWord(None, None, (), empty=True)
        window = tuple((start + i, s) for i, s in enumerate(symbols))
        return PaddedWord(start, start + len(symbols) - 1, window)

    @staticmethod
    def forward_infinite(start: int, known=()) -> "PaddedWord":
        window = tuple((start + i, s) for i, s in enumerate(known))
        return PaddedWord(start, None, window)

    @staticmethod
    def backward_infinite(end: int, known=()) -> "PaddedWord":
        known = tuple(known)
        window = tuple((end - len(known) + 1 + i, s) for i, s in enumerate(known))
        return PaddedWord(None, end, window)

    @staticmethod
    def bi_infinite(known=(), start: int = 0) -> "PaddedWord":
        window = tuple((start + i, s) for i, s in enumerate(known))
        return PaddedWord(None, None, window)


@dataclass(frozen=True, slots=True)
class PaddedWordClass:
    kind: str  # finite / forward_infinite / backward_infinite / bi_infinite / empty
    start: Optional[int] = None
    end: Optional[int] = None


def classify_padded_word(w: PaddedWord) -> PaddedWordClass:
    """Classification by the support interval I."""
    if w.empty:
        return PaddedWordClass("empty")
    if w.lo is None and w.hi is None:
        return PaddedWordClass("bi_infinite")
    if w.hi is None:
        return PaddedWordClass("forward_infinite", start=w.lo)
    if w.lo is None:
        return PaddedWordClass("backward_infinite", end=w.hi)
    return PaddedWordClass("finite", start=w.lo, end=w.hi)
