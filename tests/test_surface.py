import math
from fractions import Fraction as F

import pytest

from polybounce import geom
from polybounce.errors import (
    GluingMismatch,
    LengthMismatch,
    OrientationClash,
    ParseError,
    StartOutsidePolygon,
    UnpairedEdge,
)
from polybounce.geom import EXACT, Vec2, direction, point, translation
from polybounce.surface import (
    combinatorially_equivalent,
    cutting_sequence,
    parse_glued_polygon_text,
    validate_glued_polygon,
)
from conftest import TABLES, exact_points


def square_torus():
    return validate_glued_polygon(
        exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]),
        ["b", "r", "t", "l"],
        [
            ("b", "t", translation(Vec2(F(0), F(1)))),
            ("l", "r", translation(Vec2(F(1), F(0)))),
        ],
        "torus",
    )


OCTAGON_COORDS = [(4, 0), (9, 0), (13, 4), (13, 9), (9, 13), (4, 13), (0, 9), (0, 4)]


def octagon(labels):
    """Octagon with opposite sides paired by the letter rule A-E, B-F, C-G, D-H."""
    verts = exact_points(OCTAGON_COORDS)
    pairs = []
    done = set()
    for i, lab in enumerate(labels):
        partner = {"A": "E", "E": "A", "B": "F", "F": "B", "C": "G", "G": "C",
                   "D": "H", "H": "D"}[lab]
        if lab in done or partner in done:
            continue
        j = labels.index(partner)
        a = verts[i]
        b_end = verts[(j + 1) % 8]
        pairs.append((lab, partner, translation(b_end - a)))
        done.update({lab, partner})
    return validate_glued_polygon(verts, labels, pairs, "octagon")


OCTAGON_LABELS_CW = ["E", "D", "C", "B", "A", "H", "G", "F"]
OCTAGON_LABELS_CCW = ["A", "B", "C", "D", "E", "F", "G", "H"]


def pillowcase_quarter():
    """Square with adjacent edges glued by quarter turns about shared corners."""
    return validate_glued_polygon(
        exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]),
        ["b", "r", "t", "l"],
        [
            ("b", "r", geom.rotation_quarter_turns(3, point(1, 0, EXACT))),
            ("t", "l", geom.rotation_quarter_turns(3, point(0, 1, EXACT))),
        ],
        "pillow",
    )


class TestValidate:
    def test_square_torus(self):
        gp = square_torus()
        assert len(gp.vertex_classes) == 1
        vc = gp.vertex_classes[0]
        assert vc.members == (0, 1, 2, 3)
        assert vc.total_angle_over_pi == 2
        assert math.isclose(vc.total_angle_rad, 2 * math.pi)

    def test_octagon_single_class_6pi(self):
        gp = octagon(OCTAGON_LABELS_CW)
        assert len(gp.vertex_classes) == 1
        assert gp.vertex_classes[0].total_angle_over_pi == 6

    def test_double_labels(self):
        gp = square_torus()
        dl = gp.double_labels()
        assert dl["b"] == ("b", "t") and dl["t"] == ("t", "b")
        assert dl["l"] == ("l", "r") and dl["r"] == ("r", "l")

    def test_length_mismatch(self):
        # 2x1 rectangle: left and bottom cannot be glued
        with pytest.raises(LengthMismatch):
            validate_glued_polygon(
                exact_points([(0, 0), (2, 0), (2, 1), (0, 1)]),
                ["b", "r", "t", "l"],
                [
                    ("b", "l", translation(Vec2(F(0), F(1)))),
                    ("r", "t", translation(Vec2(F(0), F(0)))),
                ],
            )

    def test_orientation_clash(self):
        # rotation by pi carries bottom onto top preserving boundary direction
        rot = geom.rotation_quarter_turns(2, point(F(1, 2), F(1, 2), EXACT))
        with pytest.raises(OrientationClash):
            validate_glued_polygon(
                exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]),
                ["b", "r", "t", "l"],
                [("b", "t", rot), ("l", "r", translation(Vec2(F(1), F(0))))],
            )

    def test_gluing_mismatch(self):
        with pytest.raises(GluingMismatch):
            validate_glued_polygon(
                exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]),
                ["b", "r", "t", "l"],
                [
                    ("b", "t", translation(Vec2(F(0), F(2)))),
                    ("l", "r", translation(Vec2(F(1), F(0)))),
                ],
            )

    def test_unpaired_edge(self):
        with pytest.raises(UnpairedEdge):
            validate_glued_polygon(
                exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]),
                ["b", "r", "t", "l"],
                [("b", "t", translation(Vec2(F(0), F(1))))],
            )

    def test_self_pairing_rejected(self):
        with pytest.raises(UnpairedEdge):
            validate_glued_polygon(
                exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]),
                ["b", "r", "t", "l"],
                [
                    ("b", "b", translation(Vec2(F(0), F(1)))),
                    ("l", "r", translation(Vec2(F(1), F(0)))),
                ],
            )

    def test_quarter_turn_gluing_valid(self):
        # adjacent edges folded together about their shared corner
        gp = pillowcase_quarter()
        assert gp.pairing_relation() == frozenset(
            {frozenset({"t", "l"}), frozenset({"b", "r"})}
        )
        angles = sorted(vc.total_angle_over_pi for vc in gp.vertex_classes)
        assert angles == [F(1, 2), F(1, 2), F(1)]


class TestEquivalence:
    def test_relabeled_octagons_equivalent(self):
        left = octagon(OCTAGON_LABELS_CW)
        right = octagon(OCTAGON_LABELS_CCW)
        assert left.polygon.labels != right.polygon.labels
        assert combinatorially_equivalent(left, right)

    def test_reflexive(self):
        gp = square_torus()
        assert combinatorially_equivalent(gp, gp)

    def test_different_relation(self):
        # {b,t},{l,r} vs {b,r},{t,l}: same labels, different relations
        assert not combinatorially_equivalent(square_torus(), pillowcase_quarter())

    def test_equivalence_relation_on_corpus(self):
        corpus = [octagon(OCTAGON_LABELS_CW), octagon(OCTAGON_LABELS_CCW), square_torus()]
        for a in corpus:
            assert combinatorially_equivalent(a, a)
            for b in corpus:
                assert combinatorially_equivalent(a, b) == combinatorially_equivalent(b, a)
        # transitivity on the pair that is equivalent
        a, b, c = corpus
        if combinatorially_equivalent(a, b) and combinatorially_equivalent(b, c):
            assert combinatorially_equivalent(a, c)


class TestCutting:
    def test_octagon_vertical_A(self):
        gp = octagon(OCTAGON_LABELS_CW)
        word = cutting_sequence(gp, point(5, 1, EXACT), direction(0, 1, EXACT), 20)
        assert word.symbols == ("A",) * 20
        assert not word.singular

    def test_octagon_vertical_E(self):
        gp = octagon(OCTAGON_LABELS_CW)
        word = cutting_sequence(gp, point(8, 12, EXACT), direction(0, -1, EXACT), 20)
        assert word.symbols == ("E",) * 20

    def test_torus_horizontal(self):
        gp = square_torus()
        word = cutting_sequence(
            gp, point(F(1, 2), F(1, 3), EXACT), direction(1, 0, EXACT), 7
        )
        assert word.symbols == ("r",) * 7

    def test_direction_preserved_across_translations(self):
        gp = octagon(OCTAGON_LABELS_CW)
        word = cutting_sequence(gp, point(5, 1, EXACT), direction(1, 3, EXACT), 15)
        for chord in word.chords:
            d = chord.direction()
            assert d.dx * 3 == d.dy  # slope 3 everywhere

    def test_vertex_hit_singular(self):
        gp = square_torus()
        word = cutting_sequence(
            gp, point(F(1, 2), F(1, 2), EXACT), direction(1, 1, EXACT), 9
        )
        assert word.singular
        assert len(word.symbols) < 9

    def test_start_outside(self):
        gp = square_torus()
        with pytest.raises(StartOutsidePolygon):
            cutting_sequence(gp, point(2, 2, EXACT), direction(1, 0, EXACT), 3)
        with pytest.raises(StartOutsidePolygon):
            cutting_sequence(gp, point(F(1, 2), 0, EXACT), direction(0, 1, EXACT), 3)

    def test_negative_crossings_rejected(self):
        gp = square_torus()
        with pytest.raises(ValueError):
            cutting_sequence(
                gp, point(F(1, 2), F(1, 3), EXACT), direction(1, 0, EXACT), -1
            )

    def test_holonomy_trivial_on_translation_surface(self):
        gp = octagon(OCTAGON_LABELS_CW)
        for pairing in gp.pairings:
            iso = pairing.iso
            assert (iso.m00, iso.m01, iso.m10, iso.m11) == (1, 0, 0, 1)
        # composing linear parts around the single vertex class is the identity
        product = geom.identity_isometry(EXACT)
        for pairing in gp.pairings:
            product = geom.compose(
                geom.PlanarIsometry(
                    pairing.iso.m00, pairing.iso.m01, pairing.iso.m10,
                    pairing.iso.m11, F(0), F(0)
                ),
                product,
            )
        assert product.is_identity()


class TestFiles:
    def test_load_octagon_file(self):
        text = (TABLES / "octagon.surface").read_text()
        gp = parse_glued_polygon_text(text, EXACT)
        assert gp.vertex_classes[0].total_angle_over_pi == 6
        word = cutting_sequence(gp, point(5, 1, EXACT), direction(0, 1, EXACT), 3)
        assert word.symbols == ("A", "A", "A")

    def test_rotation_pair_grammar_exact(self):
        text = """
        table rot
        vertex 0 0
        vertex 1 0
        vertex 1 1
        vertex 0 1
        labels b r t l
        pair l t rotate 1/2pi about 0 0   # then shifted? no: plain quarter turn fails placement
        pair b r rotate 1/2pi about 1/2 1/2
        """
        with pytest.raises((ParseError, GluingMismatch)):
            parse_glued_polygon_text(text, EXACT)

    def test_rotation_pair_exact_quarter_turn(self):
        text = """
        table rot
        vertex 0 0
        vertex 1 0
        vertex 1 1
        vertex 0 1
        labels b r t l
        pair b r rotate 3/2pi about 1 0
        pair t l rotate -1/2pi about 0 1
        """
        gp = parse_glued_polygon_text(text, EXACT)
        assert len(gp.pairings) == 2

    def test_exact_third_turn_rejected(self):
        text = """
        table rot
        vertex 0 0
        vertex 1 0
        vertex 1 1
        vertex 0 1
        labels b r t l
        pair b r rotate 1/3pi about 1/2 1/2
        pair t l rotate 1/2pi about 1/2 1/2
        """
        with pytest.raises(ParseError):
            parse_glued_polygon_text(text, EXACT)
