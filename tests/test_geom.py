import math
import random
import sys
from fractions import Fraction as F

import pytest

from conftest import reference_apply, reference_apply_vec, reference_first_hit
from polybounce import geom
from polybounce.errors import (
    BackendMismatch,
    DegenerateDirection,
    DegenerateSegment,
    ParseError,
)
from polybounce.geom import (
    CCW,
    COLLINEAR,
    CW,
    ENDPOINT_B,
    EXACT,
    F64,
    INTERIOR,
    Point2,
    Segment,
    Vec2,
    compose,
    direction,
    identity_isometry,
    orientation,
    point,
    ray_segment_hit,
    reflection_across,
    translation,
)


def P(x, y):
    return point(x, y, EXACT)


def seg(ax, ay, bx, by):
    return Segment(P(ax, ay), P(bx, by))


class TestOrientation:
    def test_ccw(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == CCW

    def test_collinear(self):
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == COLLINEAR

    def test_cw(self):
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == CW

    def test_mixed_backend_rejected(self):
        with pytest.raises(BackendMismatch):
            orientation(P(0, 0), Point2(1.0, 0.0), P(0, 1))

    def test_float_tolerance(self):
        # cross product of order 1e-12 is collinear at eps=1e-9
        assert orientation(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 1e-12)) == COLLINEAR


class TestRaySegmentHit:
    def test_axis_aligned_interior(self):
        h = ray_segment_hit(P(F(1, 2), F(1, 2)), direction(0, 1, EXACT), seg(0, 1, 1, 1))
        assert h.t == F(1, 2)
        assert (h.point.x, h.point.y) == (F(1, 2), 1)
        assert h.where == INTERIOR

    def test_corner_shot_endpoint(self):
        h = ray_segment_hit(P(F(1, 2), F(1, 2)), direction(1, 1, EXACT), seg(1, 0, 1, 1))
        assert h.where == ENDPOINT_B
        assert (h.point.x, h.point.y) == (1, 1)

    def test_miss(self):
        assert ray_segment_hit(P(0, 0), direction(1, 0, EXACT), seg(2, 1, 2, 2)) is None

    def test_behind_origin(self):
        assert ray_segment_hit(P(0, 0), direction(0, 1, EXACT), seg(-1, -1, 1, -1)) is None

    def test_departing_point_on_segment_not_rehit(self):
        # origin on the segment, leaving it: t = 0 is not a hit
        assert ray_segment_hit(P(F(1, 2), 0), direction(0, 1, EXACT), seg(0, 0, 1, 0)) is None

    def test_collinear_overlap_enters_at_endpoint(self):
        h = ray_segment_hit(P(0, 0), direction(1, 0, EXACT), seg(2, 0, 3, 0))
        assert h.t == 2 and h.where == geom.ENDPOINT_A

    def test_parallel_disjoint(self):
        assert ray_segment_hit(P(0, 0), direction(1, 0, EXACT), seg(0, 1, 5, 1)) is None

    def test_zero_direction(self):
        with pytest.raises(DegenerateDirection):
            ray_segment_hit(P(0, 0), Vec2(F(0), F(0)), seg(0, 1, 1, 1))

    def test_int_input_stays_exact(self):
        h = ray_segment_hit(Point2(0, 0), Vec2(1, 1), Segment(Point2(3, -1), Point2(3, 5)))
        assert h.where == INTERIOR
        assert [type(v) for v in (h.t, h.point.x, h.point.y)] == [F, F, F]
        assert (h.t, h.point.x, h.point.y) == (3, 3, 3)

    def test_int_input_collinear_stays_exact(self):
        h = ray_segment_hit(Point2(0, 0), Vec2(1, 0), Segment(Point2(3, 0), Point2(5, 0)))
        assert h.where == geom.ENDPOINT_A
        assert [type(v) for v in (h.t, h.point.x, h.point.y)] == [F, F, F]
        assert (h.t, h.point.x, h.point.y) == (3, 3, 0)

    def test_infimum_no_earlier_hit_on_segment(self):
        # dense sampling below the reported parameter never lands on the segment
        rng = random.Random(7)
        for _ in range(100):
            o = P(rng.randint(-3, 3), rng.randint(-3, 3))
            d = Vec2(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
            if d.is_zero():
                continue
            a = P(rng.randint(-4, 4), rng.randint(-4, 4))
            b = P(rng.randint(-4, 4), rng.randint(-4, 4))
            if geom.points_equal(a, b):
                continue
            s = Segment(a, b)
            h = ray_segment_hit(o, d, s)
            if h is None:
                continue
            e = s.direction()
            for i in range(1, 50):
                t = h.t * F(i, 50)
                p = Point2(o.x + t * d.dx, o.y + t * d.dy)
                on = (
                    orientation(s.a, s.b, p) == COLLINEAR
                    and 0 <= (p - s.a).dot(e) <= e.norm_sq()
                )
                assert not on


class TestFirstHit:
    """The whole (index, Hit) of exact first_hit against the reference scan."""

    @staticmethod
    def check(o, d, segs):
        got = geom.first_hit(o, d, segs)
        assert repr(got) == repr(reference_first_hit(o, d, segs))
        if not isinstance(o.x, float):
            # a flight passes the edge integers it computed once
            assert repr(geom.first_hit(o, d, segs, geom.edge_integers(segs))) == repr(got)
        return got

    def test_matches_per_segment_scan(self):
        rng = random.Random(3)
        segs = [seg(1, -2, 1, 2), seg(-2, 1, 2, 1), seg(0, 3, 3, 0)]
        for _ in range(200):
            o = P(F(rng.randint(-9, 9), 10), F(rng.randint(-9, 9), 10))
            d = Vec2(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
            if d.is_zero():
                continue
            self.check(o, d, segs)

    def test_mixed_edge_denominators(self):
        rng = random.Random(4)
        segs = [
            seg(F(-1, 3), F(-5, 7), F(9, 4), F(-2, 5)),
            seg(F(9, 4), F(-2, 5), F(11, 6), F(13, 9)),
            seg(F(11, 6), F(13, 9), F(-1, 3), F(-5, 7)),
            seg(F(1, 2), 3, F(1, 2), F(-7, 11)),
        ]

        def rat(top, den):
            return F(rng.randint(-top, top), rng.randint(1, den))

        hits = 0
        for k in range(300):
            o = P(rat(20, 13), rat(20, 13))
            if k % 3 == 0:
                d = Vec2(rat(9, 8), rat(9, 8))
            else:
                # aimed at a vertex or at a point of an edge
                s = rng.choice(segs)
                u = rng.choice([0, 1, F(rng.randint(1, 6), 7)])
                d = Vec2(s.a.x + u * (s.b.x - s.a.x) - o.x, s.a.y + u * (s.b.y - s.a.y) - o.y)
            if d.is_zero():
                continue
            hits += self.check(o, d, segs) is not None
        assert hits > 200

    def test_wide_origin_denominators(self):
        rng = random.Random(5)
        segs = [seg(0, 0, 2, 0), seg(2, 0, F(1, 3), F(5, 2)), seg(F(1, 3), F(5, 2), 0, 0)]
        for _ in range(100):
            q = rng.getrandbits(210) | (1 << 209)
            # x in (1/2, 1), y in (0, 1/2): inside the triangle
            o = P(F(q + rng.randint(1, q - 1), 2 * q), F(rng.randint(1, q), 2 * q + 1))
            dq = rng.getrandbits(200) | 1
            d = Vec2(F(rng.randint(-dq, dq), dq), F(rng.randint(-dq, dq), dq + 2))
            if d.is_zero():
                continue
            assert self.check(o, d, segs) is not None  # the origin is inside

    def test_parallel_and_collinear_edges(self):
        x = direction(1, 0, EXACT)
        # collinear ahead, parallel off the line, crossing further on
        segs = [seg(2, 0, 3, 0), seg(0, 1, 5, 1), seg(4, -1, 4, 1)]
        assert self.check(P(0, 0), x, segs)[0] == 0
        # departing a collinear edge: its far endpoint is still ahead
        assert self.check(P(F(5, 2), 0), x, segs)[1].where == geom.ENDPOINT_B
        # behind the origin the collinear edge is not hit
        assert self.check(P(F(7, 2), 0), x, segs)[0] == 2
        assert self.check(P(0, 2), x, segs) is None
        assert self.check(P(5, 0), x, segs) is None

    def test_shared_vertex_goes_to_lower_index(self):
        o, d = P(F(1, 2), F(1, 2)), direction(1, 1, EXACT)
        right, top = seg(1, 0, 1, 1), seg(1, 1, 0, 1)
        for segs in ([right, top], [top, right]):
            i, h = self.check(o, d, segs)
            assert i == 0 and (h.point.x, h.point.y) == (1, 1)
        # a tie between a collinear edge and a crossing edge, in both orders
        along, across = seg(2, 0, 3, 0), seg(2, -1, 2, 0)
        for segs in ([along, across], [across, along]):
            i, h = self.check(P(0, 0), direction(1, 0, EXACT), segs)
            assert i == 0 and h.t == 2

    def test_float_parallel_rule_matches_ray_segment_hit(self):
        # on an edge shorter than 1 the parallel test has the same floor as
        # sign_cross, so first_hit and ray_segment_hit agree
        o, d = Point2(0.0, -1.0005e-7), Vec2(1.0, 1e-7)
        s = Segment(Point2(1.0, 0.0), Point2(1.001, 0.0))
        h = ray_segment_hit(o, d, s)
        assert h.where == geom.ENDPOINT_A
        assert geom.first_hit(o, d, [s]) == (0, h)


class TestReflection:
    def test_across_y0(self):
        r = reflection_across(seg(0, 0, 1, 0))
        img = r.apply(P(3, 5))
        assert (img.x, img.y) == (3, -5)

    def test_across_y1(self):
        r = reflection_across(seg(0, 1, 1, 1))
        img = r.apply(P(2, 5))
        assert (img.x, img.y) == (2, -3)

    def test_across_diagonal(self):
        r = reflection_across(seg(0, 0, 1, 1))
        img = r.apply(P(2, 5))
        assert (img.x, img.y) == (5, 2)

    def test_degenerate(self):
        with pytest.raises(DegenerateSegment):
            reflection_across(Segment(P(1, 1), P(1, 1)))

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a = P(rng.randint(-5, 5), rng.randint(-5, 5))
            b = P(rng.randint(-5, 5), rng.randint(-5, 5))
            if geom.points_equal(a, b):
                continue
            r = reflection_across(Segment(a, b))
            assert compose(r, r).is_identity()
            assert r.det() == -1

    def test_fixes_line_pointwise(self):
        r = reflection_across(seg(1, 2, 3, 8))
        for t in (F(0), F(1, 3), F(1), F(5, 2)):
            p = Point2(1 + 2 * t, 2 + 6 * t)
            assert geom.points_equal(r.apply(p), p)


class TestCompose:
    def test_two_horizontal_reflections_translate(self):
        r0 = reflection_across(seg(0, 0, 1, 0))
        r1 = reflection_across(seg(0, 1, 1, 1))
        c = compose(r1, r0)
        assert c.is_translation()
        assert (c.tx, c.ty) == (0, 2)

    def test_inverse_law(self):
        r = reflection_across(seg(1, 2, 3, 8))
        t = translation(Vec2(F(3), F(-2)))
        f = compose(r, t)
        assert compose(f, f.inverse()).is_identity()
        assert compose(f.inverse(), f).is_identity()

    def test_perpendicular_reflections_rotate_pi(self):
        rx = reflection_across(seg(1, 0, 1, 1))  # line x = 1
        ry = reflection_across(seg(0, 1, 1, 1))  # line y = 1
        c = compose(rx, ry)
        assert (c.m00, c.m01, c.m10, c.m11) == (-1, 0, 0, -1)
        # rotation by pi about (1,1) fixes (1,1)
        assert geom.points_equal(c.apply(P(1, 1)), P(1, 1))

    def test_det_multiplicative_random(self):
        rng = random.Random(5)
        isos = [identity_isometry(EXACT)]
        for _ in range(6):
            a = P(rng.randint(-4, 4), rng.randint(-4, 4))
            b = P(rng.randint(-4, 4), rng.randint(-4, 4))
            if not geom.points_equal(a, b):
                isos.append(reflection_across(Segment(a, b)))
            isos.append(translation(Vec2(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))))
        for f in isos:
            for g in isos:
                assert compose(f, g).det() == f.det() * g.det()

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatch):
            compose(identity_isometry(EXACT), identity_isometry(F64))


class TestApplyMixedBackends:
    """Operands that are not all exact keep the scalar expressions."""

    @staticmethod
    def check(iso, x, y):
        p, v = Point2(x, y), Vec2(x, y)
        assert repr(iso.apply(p)) == repr(reference_apply(iso, p))
        assert repr(iso.apply_vec(v)) == repr(reference_apply_vec(iso, v))
        return iso.apply(p)

    def test_exact_isometry_on_float_point(self):
        img = self.check(reflection_across(seg(0, 0, 1, 0)), 0.3, -1.7)
        assert (img.x, img.y) == (0.3, 1.7)
        self.check(reflection_across(seg(F(1, 3), 0, 2, F(5, 7))), 0.3, -1.7)
        self.check(geom.rotation_quarter_turns(1, P(F(1, 2), 3)), F(1, 3), 0.25)

    def test_f64_rotation_on_float_point(self):
        rot = geom.rotation_radians(0.7, Point2(0.5, 0.25))
        img = self.check(rot, 0.3, -1.7)
        assert isinstance(img.x, float)
        self.check(rot, F(1, 3), 2)

    def test_int_isometry_keeps_ints(self):
        img = self.check(geom.PlanarIsometry(0, -1, 1, 0, 2, 0), 1, 5)
        assert (img.x, img.y) == (-3, 1) and type(img.x) is int


class TestScalars:
    def test_parse_exact(self):
        assert geom.parse_scalar("3", EXACT) == 3
        assert geom.parse_scalar("-4/6", EXACT) == F(-2, 3)
        assert geom.parse_scalar("1.1", EXACT) == F(11, 10)

    def test_parse_float(self):
        assert geom.parse_scalar("1/4", F64) == 0.25

    def test_parse_float_out_of_range(self):
        assert geom.parse_scalar("1e400", EXACT) == 10**400
        for text in ("1e400", "-1e400", "10" * 200 + "/3"):
            with pytest.raises(ParseError):
                geom.parse_scalar(text, F64)

    @pytest.mark.parametrize("backend", [EXACT, F64])
    def test_parse_rejects_huge_exponent_unexpanded(self, backend):
        # 10**40000000 alone would take minutes to build, so it comes last
        limit = sys.int_info.default_max_str_digits
        assert geom.parse_scalar(f"1e-{limit}", backend) == (F(1, 10**limit) if backend == EXACT else 0.0)
        for text in (f"-2.5E-{limit + 1}", f"1e{limit + 1}", "1e" + "9" * 5000, "1e40000000", "1e-40000000"):
            with pytest.raises(ParseError):
                geom.parse_scalar(text, backend)

    def test_format(self):
        assert geom.format_scalar(F(3, 1)) == "3"
        assert geom.format_scalar(F(-2, 7)) == "-2/7"
        assert geom.format_scalar(0.1) == "0.10000000000000001"

    def test_sqrt_exact_square(self):
        assert geom.sqrt_scalar(F(9, 4)) == F(3, 2)
        assert isinstance(geom.sqrt_scalar(F(2)), float)

    def test_float_in_exact_mode_rejected(self):
        with pytest.raises(BackendMismatch):
            geom.as_scalar(0.5, EXACT)

    def test_direction_normalization(self):
        d = direction(3, 4, F64)
        assert math.isclose(math.hypot(d.dx, d.dy), 1.0)
        de = direction(3, 4, EXACT)
        assert (de.dx, de.dy) == (3, 4)

    def test_tolerance_setter(self):
        old = geom.float_tolerance()
        geom.set_float_tolerance(1e-6)
        try:
            assert geom.scalars_equal(1.0, 1.0 + 1e-7)
        finally:
            geom.set_float_tolerance(old)
        assert not geom.scalars_equal(1.0, 1.0 + 1e-7)


class TestSegmentConstructor:
    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSegment):
            geom.segment(P(1, 1), P(1, 1))

    def test_builds_valid(self):
        s = geom.segment(P(0, 0), P(1, 0))
        assert s.length_sq() == 1
