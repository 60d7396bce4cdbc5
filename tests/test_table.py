from fractions import Fraction as F

import pytest

from polybounce.errors import (
    BackendMismatch,
    DuplicateLabel,
    LabelCountMismatch,
    ParseError,
    SelfIntersecting,
    SingularMatrix,
)
from polybounce.geom import EXACT, Point2, point
from polybounce.table import (
    INSIDE,
    ON_EDGE,
    ON_VERTEX,
    OUTSIDE,
    classify_table,
    format_table,
    locate_point,
    parse_table_text,
    transform_table,
    validate_table,
)
from conftest import exact_points


class TestValidate:
    def test_unit_square_valid(self, square):
        assert square.n == 4
        assert square.labels == ("1", "2", "3", "4")

    def test_bowtie_rejected(self):
        with pytest.raises(SelfIntersecting):
            validate_table(
                exact_points([(0, 0), (1, 1), (1, 0), (0, 1)]), list("abcd")
            )

    def test_label_count(self):
        with pytest.raises(LabelCountMismatch):
            validate_table(exact_points([(0, 0), (1, 0), (0, 1)]), ["1", "2"])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            validate_table(exact_points([(0, 0), (1, 0), (0, 1)]), ["1", "1", "2"])

    def test_cw_input_reversed_labels_stay_on_edges(self):
        # clockwise square: bottom edge is vertices[0] -> vertices[3]
        t = validate_table(
            exact_points([(0, 0), (0, 1), (1, 1), (1, 0)]),
            ["left", "top", "right", "bottom"],
        )
        from polybounce.table import signed_area_doubled

        assert signed_area_doubled(t.vertices) > 0
        by_label = {t.labels[i]: t.edge(i) for i in range(4)}
        bottom = by_label["bottom"]
        assert {(bottom.a.x, bottom.a.y), (bottom.b.x, bottom.b.y)} == {
            (0, 0),
            (1, 0),
        }
        left = by_label["left"]
        assert {(left.a.x, left.a.y), (left.b.x, left.b.y)} == {(0, 0), (0, 1)}

    def test_zero_angle_rejected(self):
        with pytest.raises(SelfIntersecting):
            validate_table(
                exact_points([(0, 0), (2, 0), (1, 0), (1, 1)]), list("abcd")
            )

    def test_nonconvex_allowed(self, lshape):
        assert lshape.n == 6


class TestClassify:
    def test_square(self, square):
        cls = classify_table(square)
        assert cls.is_right_angled and cls.is_rational
        assert cls.N == 2
        assert cls.angle_data == (F(1, 2),) * 4

    def test_right_triangle(self):
        t = validate_table(exact_points([(0, 0), (1, 0), (0, 1)]), list("abc"))
        cls = classify_table(t)
        assert cls.is_rational and not cls.is_right_angled
        assert cls.N == 4
        assert sorted(cls.angle_data) == [F(1, 4), F(1, 4), F(1, 2)]

    def test_float_generic_triangle(self):
        t = validate_table(
            [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.3, 0.77)], list("abc")
        )
        cls = classify_table(t)
        assert not cls.is_right_angled
        assert not cls.certified

    def test_exact_generic_quad_not_rational(self):
        t = validate_table(
            exact_points([(0, 0), (1, 0), (F(11, 10), 1), (0, F(9, 10))]),
            list("abcd"),
        )
        cls = classify_table(t, order_bound=60)
        assert not cls.is_rational and cls.certified

    # one exact table per octant: vertex 0 is the origin, its outgoing edge
    # runs along +x and its incoming edge comes from the angle's direction
    OCTANT_TABLES = [
        ([(0, 0), (1, 0), (1, 1)], F(1, 4), 4),
        ([(0, 0), (1, 0), (1, 1), (0, 1)], F(1, 2), 2),
        ([(0, 0), (1, 0), (0, 1), (-1, 1)], F(3, 4), 4),
        ([(0, 0), (1, 0), (1, 1), (-1, 1), (-1, 0)], F(1), 2),
        ([(0, 0), (2, 0), (2, 2), (-2, 2), (-2, -2)], F(5, 4), 4),
        ([(0, 0), (1, 0), (1, 1), (-1, 1), (-1, -1), (0, -1)], F(3, 2), 2),
        ([(0, 0), (2, 0), (2, 2), (-2, 2), (-2, -2), (2, -2)], F(7, 4), 4),
    ]

    @pytest.mark.parametrize(
        "coords,angle,n", OCTANT_TABLES, ids=[str(a) for _, a, _ in OCTANT_TABLES]
    )
    def test_octant(self, coords, angle, n):
        t = validate_table(exact_points(coords), [str(i) for i in range(len(coords))])
        cls = classify_table(t)
        assert cls.is_rational and cls.certified
        assert cls.angle_data[0] == angle
        assert sum(cls.angle_data) == t.n - 2
        assert cls.N == n

    def test_angle_sum_exact(self, square, lshape):
        for t in (square, lshape):
            cls = classify_table(t)
            assert sum(cls.angle_data) == t.n - 2

    def test_similarity_invariance(self, square):
        # scaled Pythagorean rotation keeps everything rational and exact
        rot = [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]
        scaled = [[2 * rot[0][0], 2 * rot[0][1]], [2 * rot[1][0], 2 * rot[1][1]]]
        t2 = transform_table(square, scaled, (F(7), F(-1)))
        assert classify_table(t2) == classify_table(square)

    def test_reflex_angle_data(self, lshape):
        cls = classify_table(lshape)
        assert cls.is_right_angled and cls.is_rational
        assert F(3, 2) in cls.angle_data  # the reflex corner


class TestTransform:
    def test_diag_rectangle(self, square):
        t = transform_table(square, [[2, 0], [0, 1]])
        assert t.labels == square.labels
        assert (t.vertices[1].x, t.vertices[2].y) == (2, 1)
        assert classify_table(t).is_right_angled

    def test_identity(self, square):
        t = transform_table(square, [[1, 0], [0, 1]])
        assert t.vertices == square.vertices

    def test_singular(self, square):
        with pytest.raises(SingularMatrix):
            transform_table(square, [[1, 1], [1, 1]])

    def test_orientation_restored_on_negative_det(self, square):
        t = transform_table(square, [[-1, 0], [0, 1]])
        from polybounce.table import signed_area_doubled

        assert signed_area_doubled(t.vertices) > 0
        by_label = {t.labels[i]: t.edge(i) for i in range(4)}
        bottom = by_label["1"]
        assert {(p.x, p.y) for p in (bottom.a, bottom.b)} == {(0, 0), (-1, 0)}

    def test_right_angled_stable_under_diag(self, square):
        for a, b in ((2, 1), (3, 7), (F(1, 2), F(5, 3))):
            t = transform_table(square, [[a, 0], [0, b]])
            assert classify_table(t).is_right_angled


class TestLocate:
    def test_all_kinds(self, square):
        assert locate_point(square, point(F(1, 2), F(1, 2), EXACT))[0] == INSIDE
        assert locate_point(square, point(2, 2, EXACT))[0] == OUTSIDE
        kind, idx = locate_point(square, point(F(1, 2), 0, EXACT))
        assert kind == ON_EDGE and idx == 0
        kind, idx = locate_point(square, point(1, 1, EXACT))
        assert kind == ON_VERTEX and idx == 2

    def test_nonconvex_notch(self, lshape):
        assert locate_point(lshape, point(F(3, 2), F(3, 2), EXACT))[0] == OUTSIDE
        assert locate_point(lshape, point(F(1, 2), F(3, 2), EXACT))[0] == INSIDE

    def test_float_point_on_exact_vertex_raises(self, square):
        with pytest.raises(BackendMismatch):
            locate_point(square, Point2(0.0, 0.0))


class TestFiles:
    def test_round_trip(self, square):
        text = format_table(square)
        again = parse_table_text(text, EXACT)
        assert again.vertices == square.vertices
        assert again.labels == square.labels
        assert again.name == square.name

    def test_comments_and_decimals(self):
        text = """
        # a comment
        table demo
        vertex 0 0   # origin
        vertex 1.5 0
        vertex 3/2 7/8
        labels a b c
        """
        t = parse_table_text(text, EXACT)
        assert t.vertices[1].x == F(3, 2)
        assert t.vertices[2].y == F(7, 8)

    def test_missing_labels(self):
        with pytest.raises(ParseError):
            parse_table_text("table x\nvertex 0 0\nvertex 1 0\nvertex 0 1\n", EXACT)

    def test_bad_directive(self):
        with pytest.raises(ParseError):
            parse_table_text("polygon x\n", EXACT)
