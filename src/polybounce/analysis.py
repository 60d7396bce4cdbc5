"""Symbolic-dynamics decision procedures.

* periodic_orbit_for_word: a word is realized by a periodic billiard
  trajectory iff the corridor composite is a nonzero translation T and some
  line parallel to T threads every gate interior in order; witnesses are
  re-validated by tracing before being returned.

* enumerate_generalized_diagonals: breadth-first search over the unfolding
  tree rooted at a source vertex, maintaining the open angular sector that
  subtends the intersection of all gates crossed so far.

* sample_bounce_language / compare_spectra: quasi-random finite-window
  sampling of the bounce spectrum and exact comparison under a label map.

* flag_singular_words: finite-depth suffix/prefix matching of long words
  against generalized-diagonal tails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import geom
from .errors import (
    IncompleteBijection,
    NonPositiveLength,
    UnknownVertex,
    WindowMismatch,
    WindowTooLong,
)
from .flow import RayState, trace
from .geom import Point2, Segment, Vec2, sign
from .table import INSIDE, LabeledTable, locate_point
from .unfolding import UnfoldingCorridor, unfold_word

FOUND = "Found"
NON_TRANSLATION = "NonTranslationComposite"
EMPTY_CORRIDOR = "EmptyCorridor"

INDISTINGUISHABLE = "IndistinguishableAtK"
SEPARATED = "Separated"


# ---------------------------------------------------------------------------
# periodic words


@dataclass(frozen=True, slots=True)
class PeriodicOrbitResult:
    exists: bool
    reason: str  # FOUND / NON_TRANSLATION / EMPTY_CORRIDOR
    word: Tuple[str, ...]  # effective word (doubled when the input was odd)
    doubled: bool
    translation: Optional[Vec2] = None
    witness_start: Optional[RayState] = None
    corridor_interval: Optional[Tuple[geom.Scalar, geom.Scalar]] = None
    family_width: Optional[geom.Scalar] = None
    normal: Optional[Vec2] = None
    corridor: Optional[UnfoldingCorridor] = None


def _gate_projection(seg: Segment, n: Vec2):
    pa = seg.a.x * n.dx + seg.a.y * n.dy
    pb = seg.b.x * n.dx + seg.b.y * n.dy
    return (pa, pb) if pa <= pb else (pb, pa)


_DYADIC_OFFSETS: Tuple[Fraction, ...] = tuple(
    Fraction(odd, 1 << level)
    for level in range(1, 7)
    for odd in range(1, 1 << level, 2)
)


def _witness_for_offset(
    corridor: UnfoldingCorridor, t_vec: Vec2, n: Vec2, c
) -> Optional[RayState]:
    """Fold the corridor line with normal offset c back to a billiard start,
    or None when that line does not thread the gates in order."""
    gates = corridor.gates
    g1 = gates[0]
    pa = g1.a.x * n.dx + g1.a.y * n.dy
    pb = g1.b.x * n.dx + g1.b.y * n.dy
    tau = (c - pa) / (pb - pa)
    e1 = g1.direction()
    x = Point2(g1.a.x + tau * e1.dx, g1.a.y + tau * e1.dy)
    lam_prev = 0 if not isinstance(c, float) else 0.0
    lam = lam_prev
    scale = max(1, geom.abs_scalar(x.x), geom.abs_scalar(x.y))
    for k in range(1, len(gates)):
        gk = gates[k]
        ek = gk.direction()
        if geom.sign_cross(t_vec, ek) == 0:
            return None
        lam = (gk.a - x).cross(ek) / t_vec.cross(ek)
        if sign(lam - lam_prev, scale) <= 0:
            return None
        lam_prev = lam
    if sign(1 - lam, scale) <= 0:
        return None
    point_q = Point2(x.x + lam * t_vec.dx, x.y + lam * t_vec.dy)
    fold = corridor.copies[-2].inverse()
    pos = fold.apply(point_q)
    d = geom.renormalized(t_vec)
    return RayState(pos, d, corridor.table)


def _witness_closes_up(state: RayState, word: Tuple[str, ...]) -> bool:
    traj = trace(state, len(word))
    if traj.is_singular or len(traj.hits) != len(word):
        return False
    if tuple(h.edge_label for h in traj.hits) != word:
        return False
    last = traj.hits[-1]
    return geom.points_equal(last.point, state.position) and geom.scalars_equal(
        last.direction.dx, state.direction.dx
    ) and geom.scalars_equal(last.direction.dy, state.direction.dy)


def periodic_orbit_for_word(
    table: LabeledTable, word: Sequence[str]
) -> PeriodicOrbitResult:
    """Decide whether ``word`` is the bounce word of a periodic trajectory.

    Odd words are doubled first: an odd reflection composite reverses
    orientation and can never be a translation.
    """
    word = tuple(word)
    doubled = len(word) % 2 == 1
    effective = word + word if doubled else word
    corridor = unfold_word(table, effective)
    comp = corridor.composite
    t_vec = comp.translation_vec()
    if not comp.is_translation() or t_vec.is_zero():
        return PeriodicOrbitResult(False, NON_TRANSLATION, effective, doubled)
    n = t_vec.perp()
    lo = hi = None
    for gate in corridor.gates:
        gmin, gmax = _gate_projection(gate, n)
        lo = gmin if lo is None or gmin > lo else lo
        hi = gmax if hi is None or gmax < hi else hi
    interval_scale = max(1, geom.abs_scalar(lo), geom.abs_scalar(hi))
    if sign(hi - lo, interval_scale) <= 0:
        return PeriodicOrbitResult(False, EMPTY_CORRIDOR, effective, doubled)

    exact = table.backend == geom.EXACT
    width_sq = (hi - lo) * (hi - lo) / n.norm_sq()
    family_width = geom.sqrt_scalar(width_sq if exact else float(width_sq))

    for f in _DYADIC_OFFSETS:
        offset = f if exact else float(f)
        c = lo + offset * (hi - lo)
        state = _witness_for_offset(corridor, t_vec, n, c)
        if state is None:
            continue
        if _witness_closes_up(state, effective):
            return PeriodicOrbitResult(
                True,
                FOUND,
                effective,
                doubled,
                translation=t_vec,
                witness_start=state,
                corridor_interval=(lo, hi),
                family_width=family_width,
                normal=n,
                corridor=corridor,
            )
    return PeriodicOrbitResult(
        False,
        EMPTY_CORRIDOR,
        effective,
        doubled,
        translation=t_vec,
        corridor_interval=(lo, hi),
        normal=n,
        corridor=corridor,
    )


def witness_at_offset(result: PeriodicOrbitResult, fraction) -> Optional[RayState]:
    """Witness start for a corridor offset strictly between 0 and 1; the
    parallel-family (flat strip) probe used by the tests."""
    if not result.exists:
        raise ValueError("no corridor on a negative result")
    lo, hi = result.corridor_interval
    if isinstance(lo, float):
        fraction = float(fraction)
    c = lo + fraction * (hi - lo)
    return _witness_for_offset(result.corridor, result.translation, result.normal, c)


# ---------------------------------------------------------------------------
# generalized diagonals


@dataclass(frozen=True, slots=True)
class DiagonalRecord:
    word: Tuple[str, ...]
    source_vertex: int
    target_image: Point2
    length_sq: geom.Scalar


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
    hi_cands = []
    if window.contains(cone.hi):
        hi_cands.append((cone.hi, cone.hi_closed))
    if closed.contains(wb):
        if _same_ray(wb, cone.hi):
            hi_cands.append((cone.hi, False))
        else:
            hi_cands.append((wb, False))
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
    hi, hi_closed = hi_cands[0]
    for d, cl in hi_cands[1:]:
        if _same_ray(d, hi):
            hi_closed = hi_closed and cl
        elif geom.sign_cross(d, hi) > 0:
            hi, hi_closed = d, cl
    c = geom.sign_cross(lo, hi)
    if c > 0:
        return _Cone(lo, hi, lo_closed, hi_closed)
    if c == 0 and lo_closed and hi_closed and sign(lo.dot(hi)) > 0:
        return _Cone(lo, hi, True, True)
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


def enumerate_generalized_diagonals(
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


def resimulate_diagonal(
    table: LabeledTable, record: DiagonalRecord, offset=None
) -> bool:
    """Independent check of a diagonal by tracing the billiard flow.

    Exact backend: trace from the source vertex itself; float backend: pass
    ``offset`` to start slightly inside along the segment direction.  The
    trace must reproduce the word and terminate singularly at the folded
    target vertex.
    """
    v0 = table.vertices[record.source_vertex]
    d = record.target_image - v0
    pos = v0
    if offset is not None:
        unit = geom.renormalized(d)
        pos = Point2(v0.x + offset * unit.dx, v0.y + offset * unit.dy)
    state = RayState(pos, geom.renormalized(d), table)
    traj = trace(state, len(record.word) + 1)
    if not traj.is_singular:
        return False
    if tuple(h.edge_label for h in traj.hits) != record.word:
        return False
    corridor = unfold_word(table, record.word)
    expected = corridor.composite.inverse().apply(record.target_image)
    hit_vertex = table.vertices[traj.terminated_by.vertex_index]
    return geom.points_equal(hit_vertex, expected)


# ---------------------------------------------------------------------------
# bounce-language sampling


@dataclass(frozen=True)
class WordLanguage:
    k: int
    words: frozenset
    alphabet: frozenset
    provenance: dict


def _halton(index: int, base: int) -> Fraction:
    result = Fraction(0)
    f = Fraction(1, base)
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


def sample_states(table: LabeledTable, count: int, seed: int):
    """Deterministic quasi-random interior start states.

    Positions come from a Halton sequence over the bounding box (rejection
    sampled into the interior); directions from a tan-half-angle rational
    parameter, so the exact backend stays rational.  Both are produced in
    bounding-box coordinates, so tables related by an axis-aligned affine
    map with the same seed receive corresponding samples.
    """
    states, stats = _sample_states_stats(table, count, seed)
    return states


def _sample_states_stats(table: LabeledTable, count: int, seed: int):
    backend = table.backend
    xmin, ymin, xmax, ymax = table.bounding_box()
    wx = xmax - xmin
    wy = ymax - ymin
    states = []
    rejected = 0
    index = 1 + 1000003 * (seed % (1 << 30))
    attempts = 0
    cap = 1000 * count + 1000
    while len(states) < count and attempts < cap:
        attempts += 1
        u_x = _halton(index, 2)
        u_y = _halton(index, 3)
        u_t = _halton(index, 5)
        u_s = _halton(index, 7)
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
        kind, _ = locate_point(table, pos)
        if kind != INSIDE:
            rejected += 1
            continue
        states.append(RayState(pos, geom.renormalized(d), table))
    return states, {"attempted": attempts, "rejected_outside": rejected}


def sample_bounce_language(
    table: LabeledTable,
    k: int,
    budget: int,
    rng_seed: int,
    margin: Optional[int] = None,
) -> WordLanguage:
    """Collect all length-k factors of ``budget`` sampled bounce words."""
    if k < 1:
        raise ValueError("window length k must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if margin is None:
        margin = max(4, k)
    length = k + margin
    words: Set[Tuple[str, ...]] = set()
    singular_skipped = 0
    collected = 0
    attempts = 0
    index_seed = rng_seed
    batch = budget
    stats_total = {"attempted": 0, "rejected_outside": 0}
    # singular starts are skipped and resampled from the same stream
    while collected < budget and attempts < 50:
        attempts += 1
        states, stats = _sample_states_stats(
            table, batch, index_seed + 7919 * (attempts - 1)
        )
        stats_total["attempted"] += stats["attempted"]
        stats_total["rejected_outside"] += stats["rejected_outside"]
        for state in states:
            traj = trace(state, length)
            if traj.is_singular:
                singular_skipped += 1
                continue
            symbols = tuple(h.edge_label for h in traj.hits)
            for i in range(len(symbols) - k + 1):
                words.add(symbols[i : i + k])
            collected += 1
            if collected >= budget:
                break
        batch = max(1, budget - collected)
    provenance = {
        "seed": rng_seed,
        "k": k,
        "margin": margin,
        "budget": budget,
        "trajectories": collected,
        "singular_skipped": singular_skipped,
        "backend": table.backend,
        **stats_total,
    }
    return WordLanguage(k, frozenset(words), frozenset(table.labels), provenance)


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    kind: str  # INDISTINGUISHABLE / SEPARATED
    k: int
    witness: Optional[Tuple[str, ...]] = None
    side: Optional[str] = None  # "first" / "second"


def compare_spectra(
    lang1: WordLanguage, lang2: WordLanguage, label_bijection: Dict[str, str]
) -> ComparisonResult:
    """Set comparison of sampled languages after relabeling lang1 into
    lang2's alphabet; returns a deterministic witness when separated."""
    if lang1.k != lang2.k:
        raise WindowMismatch(f"window lengths differ: {lang1.k} vs {lang2.k}")
    if set(label_bijection) != set(lang1.alphabet):
        raise IncompleteBijection("map keys must cover the first alphabet")
    if set(label_bijection.values()) != set(lang2.alphabet):
        raise IncompleteBijection("map values must cover the second alphabet")
    if len(set(label_bijection.values())) != len(label_bijection):
        raise IncompleteBijection("map is not injective")
    mapped1 = {tuple(label_bijection[s] for s in w) for w in lang1.words}
    only1 = mapped1 - lang2.words
    only2 = lang2.words - mapped1
    if not only1 and not only2:
        return ComparisonResult(INDISTINGUISHABLE, lang1.k)
    # deterministic witness: smallest word in lang2's alphabet
    cand1 = min(only1) if only1 else None
    cand2 = min(only2) if only2 else None
    if cand2 is None or (cand1 is not None and cand1 <= cand2):
        inverse = {v: s for s, v in label_bijection.items()}
        witness = tuple(inverse[s] for s in cand1)
        return ComparisonResult(SEPARATED, lang1.k, witness, "first")
    return ComparisonResult(SEPARATED, lang1.k, cand2, "second")


# ---------------------------------------------------------------------------
# singular-word flagging (finite-depth suffix matching)


def flag_singular_words(
    language_words: Iterable[Sequence[str]],
    diagonal_words: Iterable[Sequence[str]],
    suffix_len: int,
) -> Set[Tuple[str, ...]]:
    """Words whose length-m suffix (or prefix) extends a diagonal tail.

    Finite-depth heuristic: it can only flag, never certify completeness.
    """
    language = [tuple(w) for w in language_words]
    diagonals = [tuple(w) for w in diagonal_words]
    if suffix_len < 1:
        raise WindowTooLong("suffix length must be >= 1")
    if language and suffix_len > min(len(w) for w in language):
        raise WindowTooLong("suffix window longer than the shortest word")
    tails = {d[-suffix_len:] for d in diagonals if len(d) >= suffix_len}
    heads = {d[:suffix_len] for d in diagonals if len(d) >= suffix_len}
    flagged = set()
    for w in language:
        if w[-suffix_len:] in tails or w[:suffix_len] in heads:
            flagged.add(w)
    return flagged
