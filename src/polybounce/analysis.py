"""Symbolic-dynamics decision procedures.

* periodic_orbit_for_word: a word is realized by a periodic billiard
  trajectory iff the corridor composite is a nonzero translation T and some
  line parallel to T threads every gate interior in order; witnesses are
  re-validated by tracing before being returned.

* enumerate_generalized_diagonals: breadth-first search over the unfolding
  tree rooted at a source vertex, one exact sweep per unfolded copy: the
  copy's vertex images split the sector of rays entering it into cells of
  one exit edge each, so every record is a diagonal by construction.

* sample_bounce_language / compare_spectra: quasi-random finite-window
  sampling of the bounce spectrum and exact comparison under a label map.

* flag_singular_words: finite-depth suffix/prefix matching of long words
  against generalized-diagonal tails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cmp_to_key
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import geom
from .errors import (
    IncompleteBijection,
    NonPositiveLength,
    StartOutsideTable,
    UnknownVertex,
    WindowMismatch,
    WindowTooLong,
)
from .flow import RayState, billiard_gluing, fly, trace
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


def _between(u: Vec2, v: Vec2, d: Vec2) -> bool:
    """Is d strictly inside the sector narrower than pi that u and v bound?"""
    s = geom.sign_cross(u, v)
    return s != 0 and geom.sign_cross(u, d) == s and geom.sign_cross(d, v) == s


def _first_exit(v0: Point2, d: Vec2, sides: Sequence[Segment], entry: Optional[int]):
    """(index, Hit) of the first of a copy's ``sides`` that the ray from v0
    along d meets after it enters the copy through side ``entry``; the root
    copy (entry None) is entered at v0."""
    origin = v0
    if entry is not None:
        gate = sides[entry]
        e = gate.direction()
        lam = (gate.a - v0).cross(e) / d.cross(e)
        origin = Point2(v0.x + lam * d.dx, v0.y + lam * d.dy)
    return geom.first_hit(origin, d, sides)


def _initial_cones(table: LabeledTable, vertex: int) -> List[Tuple[Vec2, Vec2, bool]]:
    """The interior sector at the source vertex, split into sectors < pi:
    (lo, hi, lo_closed), each open at hi."""
    fwd = table.edge(vertex).direction()
    back = -table.edge((vertex - 1) % table.n).direction()
    cones = []
    lo = fwd
    lo_closed = False
    # keep splitting a quarter turn at a time until the remainder is < pi
    while not geom.sign_cross(lo, back) > 0:
        mid = lo.perp()
        cones.append((lo, mid, lo_closed))
        lo, lo_closed = mid, True
    cones.append((lo, back, lo_closed))
    return cones


def enumerate_generalized_diagonals(
    table: LabeledTable,
    source_vertex: int,
    max_length,
    max_word_length: Optional[int] = None,
) -> List[DiagonalRecord]:
    """All generalized diagonals from a vertex, up to a Euclidean length.

    Breadth-first search over the unfolding tree.  A node is a copy of the
    table (its placement and word), the edge it was entered through, and the
    sector at the source vertex of exactly the rays that enter it: open,
    narrower than pi, and closed at its lower bound only where the initial
    split put that bound.  Inside one copy the edge a ray leaves through
    changes only at the copy's vertex images, so each node is one exact
    sweep:

    * a vertex image in the sector is a critical direction iff the ray
      towards it reaches it before any edge of the copy; within
      ``max_length`` it is a record;
    * between two consecutive critical directions one exit edge holds, and
      each such cell is a child, entered through that edge.  A convex copy
      reads the edge off the edge windows; otherwise one exact
      ``first_hit`` along the cell's middle ray finds it.

    Records are diagonals by construction.  Branches die when the exit edge
    is already beyond ``max_length``.  Output is sorted by squared length,
    then lexicographic word.
    """
    if not 0 <= source_vertex < table.n:
        raise UnknownVertex(f"vertex index {source_vertex} out of range")
    backend = table.backend
    max_length = geom.as_scalar(max_length, backend)
    if sign(max_length) <= 0:
        raise NonPositiveLength("max_length must be positive")
    limit_sq = max_length * max_length
    n = table.n
    v0 = table.vertices[source_vertex]
    edges = table.edges()
    # no reflex vertex: straight angles are allowed
    convex = all(
        geom.sign_cross(edges[i - 1].direction(), edges[i].direction()) >= 0 for i in range(n)
    )
    reflections = [geom.reflection_across(e) for e in edges]
    records: List[DiagonalRecord] = []

    # node: (placement, word, entry edge index, sector lo, hi, lo_closed)
    start_placement = geom.identity_isometry(backend)
    queue = deque(
        (start_placement, (), None) + cone for cone in _initial_cones(table, source_vertex)
    )
    while queue:
        placement, word, entry, lo, hi, lo_closed = queue.popleft()
        images = [placement.apply(v) for v in table.vertices]
        rays = [u - v0 for u in images]
        sides = [Segment(images[i], images[(i + 1) % n]) for i in range(n)]

        critical = []
        for target, d in zip(images, rays):
            on_lo = lo_closed and geom.sign_cross(lo, d) == 0 and sign(lo.dot(d)) > 0
            if not (on_lo or _between(lo, hi, d)):
                continue
            if not convex:
                hit = _first_exit(v0, d, sides, entry)
                if hit is None or not geom.points_equal(hit[1].point, target):
                    continue
            critical.append(d)
            length_sq = d.norm_sq()
            if sign(length_sq - limit_sq) <= 0:
                records.append(DiagonalRecord(word, source_vertex, target, length_sq))
        if max_word_length is not None and len(word) >= max_word_length:
            continue
        critical.sort(key=cmp_to_key(lambda a, b: geom.sign_cross(b, a)))
        bounds = [lo] + critical + [hi]
        for k in range(len(bounds) - 1):
            a, b = bounds[k], bounds[k + 1]
            # empty before a critical direction on a closed lower bound
            if geom.sign_cross(a, b) <= 0:
                continue
            mid = Vec2(a.dx + b.dx, a.dy + b.dy)
            if convex:
                j = next((j for j in range(n) if j != entry
                          and _between(rays[j], rays[(j + 1) % n], mid)), None)
            else:
                hit = _first_exit(v0, mid, sides, entry)
                j = None if hit is None else hit[0]
            # f64 only: inside the tolerance a cell can miss every exit
            if j is None:
                continue
            if sign(geom.point_segment_distance_sq(v0, sides[j]) - limit_sq) > 0:
                continue
            queue.append(
                (
                    geom.compose(placement, reflections[j]),
                    word + (table.labels[j],),
                    j,
                    a,
                    b,
                    k == 0 and lo_closed,
                )
            )

    # emitted sectors never overlap, but equal-length records need a fixed order
    records.sort(key=lambda r: (r.length_sq, r.word))
    return records


def resimulate_diagonal(table: LabeledTable, record: DiagonalRecord) -> bool:
    """Independent check of a diagonal by tracing the billiard flow from the
    source vertex.  The trace must reproduce the word and terminate
    singularly at the folded target vertex.
    """
    v0 = table.vertices[record.source_vertex]
    state = RayState(v0, geom.renormalized(record.target_image - v0), table)
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


def _radical_inverse(index: int, base: int) -> Tuple[int, int]:
    """The Halton coordinate of ``index`` in ``base`` as (num, base**digits):
    the base-``base`` digits of ``index`` mirrored about the radix point."""
    num = digits = 0
    while index:
        num = num * base + index % base
        index //= base
        digits += 1
    return num, base**digits


def sample_states(table: LabeledTable, count: int, seed: int):
    """Deterministic quasi-random interior start states.

    Positions come from a Halton sequence over the bounding box (rejection
    sampled into the interior); directions from a tan-half-angle rational
    parameter, so the exact backend stays rational.  Both are produced in
    bounding-box coordinates, so tables related by an axis-aligned affine
    map with the same seed receive corresponding samples.  The Halton
    coordinates are integer radical inverses num / base**digits; f64
    samples are the exact samples correctly rounded, not a second stream.
    """
    return [state for state in _halton_starts(table, count, seed) if state is not None]


def _halton_starts(table: LabeledTable, count: int, seed: int):
    """sample_states one attempt at a time: the start state, or None where
    the sampled point is not inside.  Stops after ``count`` states or
    1000 * count + 1000 attempts."""
    exact = table.backend == geom.EXACT
    xmin, ymin, xmax, ymax = table.bounding_box()
    wx = xmax - xmin
    wy = ymax - ymin
    first = 1 + 1000003 * (seed % (1 << 30))
    found = 0
    for index in range(first, first + 1000 * count + 1000):
        if found >= count:
            return
        xn, xd = _radical_inverse(index, 2)
        yn, yd = _radical_inverse(index, 3)
        tn, td = _radical_inverse(index, 5)
        sn, sd = _radical_inverse(index, 7)
        if exact:
            pos = Point2(xmin + Fraction(xn, xd) * wx, ymin + Fraction(yn, yd) * wy)
            t = Fraction(4 * (2 * tn - td), td)
            d = Vec2((1 - t * t) * wx, 2 * t * wy)
        else:
            # int / int is correctly rounded, as float(Fraction) is
            pos = Point2(xmin + xn / xd * wx, ymin + yn / yd * wy)
            t = 4 * (2 * tn - td) / td
            d = Vec2((1.0 - t * t) * wx, 2.0 * t * wy)
        if 2 * sn >= sd:
            d = -d
        if locate_point(table, pos)[0] != INSIDE:
            yield None
            continue
        found += 1
        yield RayState(pos, geom.renormalized(d), table)


def sample_bounce_language(
    table: LabeledTable,
    k: int,
    budget: int,
    rng_seed: int,
) -> WordLanguage:
    """Collect all length-k factors of ``budget`` sampled bounce words.

    Each start is located once, by the sampler, and flown through
    ``flow.fly`` with the table's mirrors, built once per call; a start
    whose flight ends at a vertex is skipped and resampled.
    """
    if k < 1:
        raise ValueError("window length k must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    margin = max(4, k)
    length = k + margin
    words: Set[Tuple[str, ...]] = set()
    singular_skipped = 0
    collected = 0
    batches = 0
    attempted = rejected = 0
    mirrors = billiard_gluing(table)
    # singular starts are skipped and resampled from a shifted stream; each
    # batch asks for the missing count, so collected never passes budget
    while collected < budget and batches < 50:
        seed = rng_seed + 7919 * batches
        batches += 1
        for state in _halton_starts(table, budget - collected, seed):
            attempted += 1
            if state is None:
                rejected += 1
                continue
            # _halton_starts yields only starts that locate_point placed
            # INSIDE, with a nonzero direction, so trace's start check
            # cannot fail on them and is not repeated
            hits, _, singular = fly(state, length, lambda: None, mirrors, StartOutsideTable)
            if singular is not None:
                singular_skipped += 1
                continue
            symbols = tuple(h.edge_label for h in hits)
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
