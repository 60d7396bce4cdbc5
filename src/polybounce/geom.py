"""Planar geometry kernel with two numeric backends.

Exact mode stores scalars as ``fractions.Fraction``; every predicate reduces
to an integer sign and is never wrong.  Float mode stores ``float`` and
compares through a module-level relative tolerance (default 1e-9):
a == b  iff  |a-b| <= eps * max(1, |a|, |b|).  How that tolerance scales
with the magnitudes of the operands is known only to this module: other
modules take orientation signs from ``sign_cross``.

Directions are projective ray classes in exact mode (kept un-normalized so
the backend stays closed under reflection); float directions are normalized
to unit length.  All types are immutable values and all operations are pure.

The exact ray kernel, ``first_hit``, puts the origin and the direction over
common integer denominators per call and the edges once per set of segments
(``edge_integers``, which a flight computes once), so its per-edge tests are
integer signs and cross-multiplications; only the winning edge builds a
``Fraction``.  Exact isometries apply on integers too: the entries over one
denominator, the point or vector over another, one ``Fraction`` per output
coordinate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    BackendMismatch,
    DegenerateDirection,
    DegenerateSegment,
    ParseError,
)

Scalar = Union[int, Fraction, float]

EXACT = "exact"
F64 = "f64"

CCW = 1
COLLINEAR = 0
CW = -1

INTERIOR = "interior"
ENDPOINT_A = "endpoint_a"
ENDPOINT_B = "endpoint_b"

_float_eps = 1e-9


def set_float_tolerance(eps: float) -> None:
    """Set the relative tolerance used by all float-backend comparisons."""
    global _float_eps
    if not (eps > 0.0):
        raise ValueError("tolerance must be positive")
    _float_eps = float(eps)


def float_tolerance() -> float:
    return _float_eps


def backend_of(value: Scalar) -> str:
    if isinstance(value, float):
        return F64
    if isinstance(value, (int, Fraction)):
        return EXACT
    raise BackendMismatch(f"unsupported scalar type {type(value).__name__!r}")


def shared_backend(*values: Scalar) -> str:
    """Common backend of the given scalars; ints are exact."""
    backend = None
    for v in values:
        b = backend_of(v)
        if backend is None:
            backend = b
        elif backend != b:
            raise BackendMismatch("exact and float scalars mixed")
    if backend is None:
        raise BackendMismatch("no scalars given")
    return backend


def as_scalar(value: Scalar, backend: str) -> Scalar:
    """Coerce ``value`` into the backend; floats never enter exact mode."""
    if backend == EXACT:
        if isinstance(value, float):
            raise BackendMismatch("float value in exact backend")
        return Fraction(value)
    return float(value)


def parse_scalar(text: str, backend: str) -> Scalar:
    """Parse the shared numeric grammar: integer, p/q rational, or decimal.

    Decimals are parsed exactly as rationals in exact mode.  A decimal
    exponent larger in magnitude than Python's default limit on integer
    digits is rejected before it is expanded, as a longer digit string is.
    """
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > sys.int_info.default_max_str_digits:
            raise ParseError(f"exponent of number literal {text!r} is too large")
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number literal {text!r}") from exc
    if backend == EXACT:
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"number literal {text!r} is out of float range") from exc


def format_scalar(value: Scalar) -> str:
    """Reduced p/q in exact mode; 17 significant digits in float mode."""
    if isinstance(value, float):
        return format(value, ".17g")
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _sign_exact(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sign(x: Scalar, scale: Scalar = 1) -> int:
    """Sign of ``x``; in float mode, zero within eps * max(1, scale)."""
    if isinstance(x, float):
        tol = _float_eps * max(1.0, abs(scale))
        if abs(x) <= tol:
            return 0
        return 1 if x > 0 else -1
    return _sign_exact(x)


def sign_cross(u: "Vec2", v: "Vec2") -> int:
    """Sign of u x v: CCW (1), COLLINEAR (0) or CW (-1).

    The one tolerance-aware orientation predicate.  Float mode reads zero
    within eps scaled by the operands' magnitudes; that scaling lives only
    in this module and is computed only on floats.
    """
    c = u.dx * v.dy - u.dy * v.dx
    if isinstance(c, float):
        return sign(c, _cross_scale(u, v))
    return _sign_exact(c)


def scalars_equal(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= _float_eps * max(1.0, abs(a), abs(b))
    return a == b


def sqrt_scalar(value: Scalar) -> Scalar:
    """Square root; stays exact when the argument is a rational square."""
    if isinstance(value, float):
        return math.sqrt(value)
    f = Fraction(value)
    if f < 0:
        raise ValueError("negative argument")
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return math.sqrt(f.numerator / f.denominator)


@dataclass(frozen=True, slots=True)
class Vec2:
    """Displacement / direction vector.  See ``direction`` for ray classes."""

    dx: Scalar
    dy: Scalar

    def __neg__(self) -> "Vec2":
        return Vec2(-self.dx, -self.dy)

    def scaled(self, k: Scalar) -> "Vec2":
        return Vec2(self.dx * k, self.dy * k)

    def perp(self) -> "Vec2":
        """Counterclockwise quarter turn."""
        return Vec2(-self.dy, self.dx)

    def dot(self, other: "Vec2") -> Scalar:
        return self.dx * other.dx + self.dy * other.dy

    def cross(self, other: "Vec2") -> Scalar:
        return self.dx * other.dy - self.dy * other.dx

    def norm_sq(self) -> Scalar:
        return self.dx * self.dx + self.dy * self.dy

    def is_zero(self) -> bool:
        return sign(self.dx) == 0 and sign(self.dy) == 0

    @property
    def backend(self) -> str:
        return shared_backend(self.dx, self.dy)


@dataclass(frozen=True, slots=True)
class Point2:
    x: Scalar
    y: Scalar

    def __sub__(self, other: "Point2") -> Vec2:
        return Vec2(self.x - other.x, self.y - other.y)

    def translate(self, v: Vec2) -> "Point2":
        return Point2(self.x + v.dx, self.y + v.dy)

    @property
    def backend(self) -> str:
        return shared_backend(self.x, self.y)


def point(x: Scalar, y: Scalar, backend: str) -> Point2:
    return Point2(as_scalar(x, backend), as_scalar(y, backend))


def direction(dx: Scalar, dy: Scalar, backend: Optional[str] = None) -> Vec2:
    """Direction vector: un-normalized ray class (exact), unit length (float)."""
    if backend is None:
        backend = shared_backend(dx, dy)
    dx = as_scalar(dx, backend)
    dy = as_scalar(dy, backend)
    if backend == F64:
        n = math.hypot(dx, dy)
        if n <= _float_eps:
            raise DegenerateDirection("zero direction")
        return Vec2(dx / n, dy / n)
    if dx == 0 and dy == 0:
        raise DegenerateDirection("zero direction")
    return Vec2(dx, dy)


def renormalized(v: Vec2) -> Vec2:
    """Unit-length copy in float mode; identity in exact mode."""
    if isinstance(v.dx, float):
        n = math.hypot(v.dx, v.dy)
        if n == 0.0:
            raise DegenerateDirection("zero direction")
        return Vec2(v.dx / n, v.dy / n)
    return v


def points_equal(p: Point2, q: Point2) -> bool:
    return scalars_equal(p.x, q.x) and scalars_equal(p.y, q.y)


def abs_scalar(x) -> Scalar:
    return -x if x < 0 else x


def _cross_scale(u: Vec2, v: Vec2):
    # magnitude proxy for tolerance scaling of u x v
    return (abs_scalar(u.dx) + abs_scalar(u.dy)) * (abs_scalar(v.dx) + abs_scalar(v.dy))


@dataclass(frozen=True, slots=True)
class Segment:
    a: Point2
    b: Point2

    def direction(self) -> Vec2:
        return self.b - self.a

    def length_sq(self) -> Scalar:
        return (self.b - self.a).norm_sq()

def segment(a: Point2, b: Point2) -> Segment:
    if points_equal(a, b):
        raise DegenerateSegment("segment endpoints coincide")
    return Segment(a, b)


def orientation(p: Point2, q: Point2, r: Point2) -> int:
    """CCW / CW / COLLINEAR of the ordered triple (p, q, r)."""
    shared_backend(p.x, p.y, q.x, q.y, r.x, r.y)
    return sign_cross(q - p, r - p)


@dataclass(frozen=True, slots=True)
class Hit:
    t: Scalar
    point: Point2
    where: str  # INTERIOR / ENDPOINT_A / ENDPOINT_B


def _endpoint_class(pt: Point2, seg: Segment) -> str:
    if points_equal(pt, seg.a):
        return ENDPOINT_A
    if points_equal(pt, seg.b):
        return ENDPOINT_B
    return INTERIOR


def ray_segment_hit(origin: Point2, d: Vec2, seg: Segment) -> Optional[Hit]:
    """First hit of the open ray origin + t*d (t > 0) with the segment.

    Returns the smallest positive parameter, with the hit point classified
    as interior or endpoint.  Float mode treats |t|*|d| below tolerance as
    zero, so a ray departing a point on the segment does not re-hit it.
    """
    shared_backend(origin.x, d.dx, seg.a.x, seg.b.x)
    if d.is_zero():
        raise DegenerateDirection("zero direction")
    # exact input may be plain ints: each divisor below becomes a Fraction
    exact = not isinstance(origin.x, float)
    e = seg.b - seg.a
    w = seg.a - origin
    if sign_cross(d, e) == 0:
        # collinear only if origin lies on the supporting line
        if sign_cross(w, d) != 0:
            return None
        dd = d.norm_sq()
        if exact:
            dd = Fraction(dd)
        ta = w.dot(d) / dd
        tb = (seg.b - origin).dot(d) / dd
        origin_scale = 1 if exact else max(1.0, abs(origin.x), abs(origin.y))
        best = None
        for t, pt, cls in ((ta, seg.a, ENDPOINT_A), (tb, seg.b, ENDPOINT_B)):
            if sign(t, origin_scale) <= 0:
                continue
            if best is None or t < best[0]:
                best = (t, pt, cls)
        if best is None:
            return None
        t, pt, cls = best
        if exact:
            pt = point(pt.x, pt.y, EXACT)
        return Hit(t, pt, cls)
    denom = d.dx * e.dy - d.dy * e.dx
    if exact:
        denom = Fraction(denom)
    t = (w.dx * e.dy - w.dy * e.dx) / denom
    if exact:
        if t <= 0:
            return None
        s = (w.dx * d.dy - w.dy * d.dx) / denom
        if s < 0 or s > 1:
            return None
    else:
        if sign(t, max(1.0, abs(origin.x), abs(origin.y))) <= 0:
            return None
        s = (w.dx * d.dy - w.dy * d.dx) / denom
        if sign(s) < 0 or sign(s - 1) > 0:
            return None
    pt = Point2(origin.x + t * d.dx, origin.y + t * d.dy)
    return Hit(t, pt, _endpoint_class(pt, seg))


def edge_integers(segments) -> tuple:
    """(D, rows) for the exact ``first_hit``: D is the lcm of every endpoint
    denominator and ``rows[i] = (ax, ay, ex, ey)`` puts edge i's start a and
    its vector e = b - a over D.  A flight computes them once for its table."""
    D = math.lcm(*[c.denominator for s in segments for c in (s.a.x, s.a.y, s.b.x, s.b.y)])
    rows = []
    for s in segments:
        a, b = s.a, s.b
        ax = a.x.numerator * (D // a.x.denominator)
        ay = a.y.numerator * (D // a.y.denominator)
        ex = b.x.numerator * (D // b.x.denominator) - ax
        ey = b.y.numerator * (D // b.y.denominator) - ay
        rows.append((ax, ay, ex, ey))
    return D, rows


def first_hit(origin: Point2, d: Vec2, segments, edge_ints=None) -> Optional[tuple]:
    """(index, Hit) of the earliest ray hit among ``segments``, else None.

    Same semantics as ray_segment_hit per segment, with the smallest t
    winning and ties going to the lowest index.

    Exact mode works on homogeneous integers: the origin is (X, Y) / W, the
    direction (DX, DY) / L and every endpoint is over one denominator D.  An
    edge a + s*e with e = (ex, ey) / D then has t = T*L / (den*D*W) and
    s = S / (den*W), with den = DX*ey - DY*ex made positive, so the per-edge
    tests are integer signs and cross-multiplications and only the winner
    builds a Fraction.  The winner is an endpoint exactly when S == 0 (a) or
    S == den*W (b), because the edge is nondegenerate.  ``edge_ints`` is
    ``edge_integers(segments)``, which a caller flying many rays over the
    same segments passes in; without it the call computes it.  Edges
    parallel to the ray (den == 0) go through ray_segment_hit.
    """
    if d.is_zero():
        raise DegenerateDirection("zero direction")
    exact = not isinstance(origin.x, float)
    ox, oy = origin.x, origin.y
    dx, dy = d.dx, d.dy
    if exact:
        D, rows = edge_integers(segments) if edge_ints is None else edge_ints
        W = math.lcm(ox.denominator, oy.denominator)
        L = math.lcm(dx.denominator, dy.denominator)
        DX = dx.numerator * (L // dx.denominator)
        DY = dy.numerator * (L // dy.denominator)
        # the origin over D*W, so that w = a - origin is (WX, WY) / (D*W)
        XD = ox.numerator * (W // ox.denominator) * D
        YD = oy.numerator * (W // oy.denominator) * D
        # best t so far: best_T*L / (best_den*D*W); best_hit is None until
        # the end unless a parallel edge won
        winner = None
        best_T = best_den = best_S = 0
        for i, (ax, ay, ex, ey) in enumerate(rows):
            den = DX * ey - DY * ex
            if den == 0:
                h = ray_segment_hit(origin, d, segments[i])
                if h is not None:
                    T = h.t.numerator * D * W
                    den = h.t.denominator * L
                    if best_den == 0 or T * best_den < best_T * den:
                        best_T, best_den, winner, best_hit = T, den, i, h
                continue
            WX = ax * W - XD
            WY = ay * W - YD
            if den < 0:
                # T and S are linear in w: this makes den > 0 for both
                den, WX, WY = -den, -WX, -WY
            T = WX * ey - WY * ex
            if T <= 0 or (best_den and T * best_den >= best_T * den):
                continue
            S = WX * DY - WY * DX
            if S < 0 or S > den * W:
                continue
            best_T, best_den, best_S, winner, best_hit = T, den, S, i, None
        if winner is None:
            return None
        if best_hit is None:
            dw = best_den * D * W
            t = Fraction(best_T * L, dw)
            pt = Point2(Fraction(XD * best_den + best_T * DX, dw),
                        Fraction(YD * best_den + best_T * DY, dw))
            if best_S == 0:
                where = ENDPOINT_A
            elif best_S == best_den * W:
                where = ENDPOINT_B
            else:
                where = INTERIOR
            best_hit = Hit(t, pt, where)
        return winner, best_hit
    best_t = None
    best = None
    eps = _float_eps
    t_tol = eps * max(1.0, abs(ox), abs(oy))
    d_l1 = abs(dx) + abs(dy)
    for i, seg in enumerate(segments):
        ax, ay = seg.a.x, seg.a.y
        ex = seg.b.x - ax
        ey = seg.b.y - ay
        denom = dx * ey - dy * ex
        # sign_cross(d, e) == 0, inlined: the scale is floored at 1
        scale = d_l1 * (abs(ex) + abs(ey))
        if abs(denom) <= eps * (scale if scale > 1.0 else 1.0):
            h = ray_segment_hit(origin, d, seg)
            if h is not None and (best_t is None or h.t < best_t):
                best_t = h.t
                best = (i, h)
            continue
        wx = ax - ox
        wy = ay - oy
        t = (wx * ey - wy * ex) / denom
        if t <= t_tol or (best_t is not None and t >= best_t):
            continue
        s = (wx * dy - wy * dx) / denom
        if s < -eps or s > 1.0 + eps:
            continue
        best_t = t
        pt = Point2(ox + t * dx, oy + t * dy)
        best = (i, Hit(t, pt, _endpoint_class(pt, seg)))
    return best


_ZERO = Fraction(0)


def _exact_affine(m00, m01, m10, m11, tx, ty, x, y) -> Optional[tuple]:
    """The coordinates of M (x, y) + t, with the entries over one
    denominator and (x, y) over another, so each coordinate is one Fraction.
    None unless the entries are Fractions and x, y exact: then the scalar
    expression gives Fractions too, and any other operands keep it.
    ``apply_vec`` passes t = (_ZERO, _ZERO)."""
    if not (Fraction is type(m00) is type(m01) is type(m10) is type(m11) is type(tx) is type(ty)
            and type(x) in (int, Fraction) and type(y) in (int, Fraction)):
        return None
    d00, d01, d10, d11 = m00.denominator, m01.denominator, m10.denominator, m11.denominator
    dtx, dty = tx.denominator, ty.denominator
    M = math.lcm(d00, d01, d10, d11, dtx, dty)
    xd, yd = x.denominator, y.denominator
    V = math.lcm(xd, yd)
    X = x.numerator * (V // xd)
    Y = y.numerator * (V // yd)
    den = M * V
    return (Fraction(m00.numerator * (M // d00) * X + m01.numerator * (M // d01) * Y
                     + tx.numerator * (M // dtx) * V, den),
            Fraction(m10.numerator * (M // d10) * X + m11.numerator * (M // d11) * Y
                     + ty.numerator * (M // dty) * V, den))


@dataclass(frozen=True, slots=True)
class PlanarIsometry:
    """x |-> M x + t with M orthogonal of determinant +/-1."""

    m00: Scalar
    m01: Scalar
    m10: Scalar
    m11: Scalar
    tx: Scalar
    ty: Scalar

    def apply(self, p: Point2) -> Point2:
        """M p + t; on exact operands one Fraction per coordinate, built from
        integers over common denominators (``_exact_affine``).  Float
        isometries skip that branch at one type test."""
        if type(self.m00) is Fraction:
            xy = _exact_affine(self.m00, self.m01, self.m10, self.m11, self.tx, self.ty, p.x, p.y)
            if xy is not None:
                return Point2(*xy)
        return Point2(
            self.m00 * p.x + self.m01 * p.y + self.tx,
            self.m10 * p.x + self.m11 * p.y + self.ty,
        )

    def apply_vec(self, v: Vec2) -> Vec2:
        """M v, on integers for exact operands as in ``apply``."""
        if type(self.m00) is Fraction:
            xy = _exact_affine(self.m00, self.m01, self.m10, self.m11, _ZERO, _ZERO, v.dx, v.dy)
            if xy is not None:
                return Vec2(*xy)
        return Vec2(self.m00 * v.dx + self.m01 * v.dy, self.m10 * v.dx + self.m11 * v.dy)

    def apply_segment(self, s: Segment) -> Segment:
        return Segment(self.apply(s.a), self.apply(s.b))

    def det(self) -> Scalar:
        return self.m00 * self.m11 - self.m01 * self.m10

    def inverse(self) -> "PlanarIsometry":
        # orthogonal linear part: inverse is the transpose
        m00, m01, m10, m11 = self.m00, self.m10, self.m01, self.m11
        return PlanarIsometry(
            m00, m01, m10, m11,
            -(m00 * self.tx + m01 * self.ty),
            -(m10 * self.tx + m11 * self.ty),
        )

    def is_identity(self) -> bool:
        return (
            scalars_equal(self.m00, 1)
            and scalars_equal(self.m01, 0)
            and scalars_equal(self.m10, 0)
            and scalars_equal(self.m11, 1)
            and scalars_equal(self.tx, 0)
            and scalars_equal(self.ty, 0)
        )

    def is_translation(self) -> bool:
        return (
            scalars_equal(self.m00, 1)
            and scalars_equal(self.m01, 0)
            and scalars_equal(self.m10, 0)
            and scalars_equal(self.m11, 1)
        )

    def translation_vec(self) -> Vec2:
        return Vec2(self.tx, self.ty)

    @property
    def backend(self) -> str:
        return shared_backend(self.m00, self.m01, self.m10, self.m11, self.tx, self.ty)


def identity_isometry(backend: str) -> PlanarIsometry:
    one = as_scalar(1, backend)
    zero = as_scalar(0, backend)
    return PlanarIsometry(one, zero, zero, one, zero, zero)


def translation(v: Vec2) -> PlanarIsometry:
    backend = v.backend
    one = as_scalar(1, backend)
    zero = as_scalar(0, backend)
    return PlanarIsometry(one, zero, zero, one, v.dx, v.dy)


def rotation_quarter_turns(k: int, center: Point2) -> PlanarIsometry:
    """Rotation by k quarter turns about ``center`` (exact on any backend)."""
    backend = center.backend
    c = [1, 0, -1, 0][k % 4]
    s = [0, 1, 0, -1][k % 4]
    c = as_scalar(c, backend)
    s = as_scalar(s, backend)
    tx = center.x - (c * center.x - s * center.y)
    ty = center.y - (s * center.x + c * center.y)
    return PlanarIsometry(c, -s, s, c, tx, ty)


def rotation_radians(theta: float, center: Point2) -> PlanarIsometry:
    """Float-backend rotation about ``center``."""
    c = math.cos(theta)
    s = math.sin(theta)
    cx = float(center.x)
    cy = float(center.y)
    return PlanarIsometry(
        c, -s, s, c, cx - (c * cx - s * cy), cy - (s * cx + c * cy)
    )


def reflection_across(seg: Segment) -> PlanarIsometry:
    """The orientation-reversing isometry fixing the segment's line pointwise."""
    d = seg.direction()
    if d.is_zero():
        raise DegenerateSegment("cannot reflect across a degenerate segment")
    n2 = d.norm_sq()
    m00 = (d.dx * d.dx - d.dy * d.dy) / n2
    m01 = 2 * d.dx * d.dy / n2
    m10 = m01
    m11 = (d.dy * d.dy - d.dx * d.dx) / n2
    px, py = seg.a.x, seg.a.y
    tx = px - (m00 * px + m01 * py)
    ty = py - (m10 * px + m11 * py)
    return PlanarIsometry(m00, m01, m10, m11, tx, ty)


def compose(f: PlanarIsometry, g: PlanarIsometry) -> PlanarIsometry:
    """f after g."""
    if f.backend != g.backend:
        raise BackendMismatch("exact and float isometries mixed")
    return PlanarIsometry(
        f.m00 * g.m00 + f.m01 * g.m10,
        f.m00 * g.m01 + f.m01 * g.m11,
        f.m10 * g.m00 + f.m11 * g.m10,
        f.m10 * g.m01 + f.m11 * g.m11,
        f.m00 * g.tx + f.m01 * g.ty + f.tx,
        f.m10 * g.tx + f.m11 * g.ty + f.ty,
    )


def point_segment_distance_sq(p: Point2, seg: Segment) -> Scalar:
    """Squared distance from a point to a closed segment (backend-exact)."""
    e = seg.b - seg.a
    w = p - seg.a
    ee = e.norm_sq()
    proj = w.dot(e)
    if proj <= 0:
        return w.norm_sq()
    if proj >= ee:
        return (p - seg.b).norm_sq()
    c = w.cross(e)
    return c * c / ee
