import math
from fractions import Fraction as F
import pytest
from conftest import pi_triangle, staircase_table
from polybounce import geom
from polybounce.analysis import sample_states
from polybounce.errors import (
    NExceedsBound,
    NotRational,
    RepeatedLabel,
    SingularTrajectory,
    UnknownLabel,
)
from polybounce.flow import RayState, trace
from polybounce.geom import EXACT, Point2, direction, point
from polybounce.table import validate_table
from polybounce.unfolding import (
    build_rational_unfolding,
    develop_trajectory,
    development_collinear,
    fold_back,
    format_surface,
    unfold_word,
)
class TestUnfoldWord:
    def test_vertical_pair_translates(self, square):
        c = unfold_word(square, ("3", "1"))
        comp = c.composite
        assert comp.is_translation()
        assert (comp.tx, comp.ty) == (0, 2)
        g1, g2 = c.gates
        assert {(p.x, p.y) for p in (g1.a, g1.b)} == {(0, 1), (1, 1)}
        assert {(p.x, p.y) for p in (g2.a, g2.b)} == {(0, 2), (1, 2)}
    def test_adjacent_pair_rotates(self, square):
        c = unfold_word(square, ("2", "3"))
        comp = c.composite
        assert (comp.m00, comp.m01, comp.m10, comp.m11) == (-1, 0, 0, -1)
        assert geom.points_equal(comp.apply(point(1, 1, EXACT)), point(1, 1, EXACT))
        assert comp.det() == 1
    def test_empty_word(self, square):
        c = unfold_word(square, ())
        assert len(c.copies) == 1
        assert c.composite.is_identity()
    def test_unknown_label(self, square):
        with pytest.raises(UnknownLabel):
            unfold_word(square, ("9",))
    def test_repeated_label(self, square):
        with pytest.raises(RepeatedLabel):
            unfold_word(square, ("1", "1"))
    def test_determinant_alternates(self, square):
        c = unfold_word(square, ("1", "2", "3", "4", "1"))
        for k, iso in enumerate(c.copies):
            assert iso.det() == (-1) ** k
    def test_consecutive_copies_disjoint_for_convex_tables(self, square, acute_triangle):
        # convex copies meet exactly along the gate; probe with centroids
        from polybounce.table import locate_point, INSIDE

        for table, word in (
            (square, ("2", "3", "4", "1")),
            (acute_triangle, ("1", "2", "3", "1")),
        ):
            c = unfold_word(table, word)
            n = table.n
            centroids = []
            for iso in c.copies:
                pts = [iso.apply(v) for v in table.vertices]
                cx = sum(p.x for p in pts) / n
                cy = sum(p.y for p in pts) / n
                centroids.append(Point2(cx, cy))
            for k in range(len(c.copies) - 1):
                fold_prev = c.copies[k].inverse()
                fold_next = c.copies[k + 1].inverse()
                assert locate_point(table, fold_prev.apply(centroids[k + 1]))[0] != INSIDE
                assert locate_point(table, fold_next.apply(centroids[k]))[0] != INSIDE

    def test_gate_shared_by_adjacent_copies(self, square, acute_triangle):
        for table, word in (
            (square, ("2", "3", "4", "1", "2")),
            (acute_triangle, ("1", "2", "3", "1")),
        ):
            c = unfold_word(table, word)
            for k, sym in enumerate(word):
                edge = table.edge(table.edge_index(sym))
                before = c.copies[k].apply_segment(edge)
                after = c.copies[k + 1].apply_segment(edge)
                assert geom.points_equal(before.a, after.a)
                assert geom.points_equal(before.b, after.b)
                assert geom.points_equal(before.a, c.gates[k].a)
class TestDevelop:
    def test_perpendicular_development(self, square):
        state = RayState(
            point(F(1, 2), F(1, 2), EXACT), direction(0, 1, EXACT), square
        )
        traj = trace(state, 4)
        corridor, dev = develop_trajectory(traj)
        assert [(p.x, p.y) for p in dev] == [
            (F(1, 2), 1),
            (F(1, 2), 2),
            (F(1, 2), 3),
            (F(1, 2), 4),
        ]
        assert development_collinear(state.position, dev)
    def test_slope_half_development_collinear(self, square):
        state = RayState(
            point(F(1, 2), F(1, 2), EXACT), direction(2, 1, EXACT), square
        )
        traj = trace(state, 12)
        corridor, dev = develop_trajectory(traj)
        assert len(dev) == 12
        assert development_collinear(state.position, dev)
        # the developed line is the original ray
        for p in dev:
            assert (p.y - F(1, 2)) * 2 == (p.x - F(1, 2))
    def test_zero_bounce_development(self, square):
        state = RayState(
            point(F(1, 2), F(1, 2), EXACT), direction(0, 1, EXACT), square
        )
        corridor, dev = develop_trajectory(trace(state, 0))
        assert dev == ()
    def test_singular_rejected(self, square):
        state = RayState(
            point(F(1, 2), F(1, 2), EXACT), direction(1, 1, EXACT), square
        )
        with pytest.raises(SingularTrajectory):
            develop_trajectory(trace(state, 5))
    def test_fold_round_trip_bit_exact(self, square, acute_triangle):
        for table, seed in ((square, 2), (acute_triangle, 3)):
            for state in sample_states(table, 10, seed):
                traj = trace(state, 15)
                if traj.is_singular:
                    continue
                corridor, dev = develop_trajectory(traj)
                assert development_collinear(state.position, dev)
                refolded = fold_back(corridor, dev)
                assert refolded == tuple(h.point for h in traj.hits)
def euler_characteristic_from_export(text):
    """Independent oracle: rebuild the glued complex from the export lines
    and count V - E + F via union-find over (copy, vertex) corners."""
    copies = set()
    gluings = []
    genus_line = None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "surface":
            genus_line = int(parts[parts.index("genus") + 1])
            n_copies = int(parts[parts.index("copies") + 1])
        elif parts[0] == "glue":
            ca, ea = parts[1].split(".")
            cb, eb = parts[2].split(".")
            copies.add(ca)
            copies.add(cb)
            gluings.append((ca, ea, cb, eb))
    assert len(copies) == n_copies
    labels = sorted({e for g in gluings for e in (g[1], g[3])})
    n = len(labels)
    order = {lab: i for i, lab in enumerate(labels)}
    parent = {}
    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.setdefault(parent[x], parent[x])
            x = parent[x]
        return x
    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    for c in copies:
        for lab in labels:
            find((c, order[lab]))
    for ca, ea, cb, eb in gluings:
        i, j = order[ea], order[eb]
        union((ca, i), (cb, i))
        union((ca, (i + 1) % n), (cb, (i + 1) % n))
    v = len({find(x) for x in list(parent)})
    e = len(gluings)
    f = len(copies)
    chi = v - e + f
    return chi, genus_line
# (table, genus): an L-shape, a 4-step staircase and two f64 triangles with
# angles (1, 2, 4) pi/7 and (2, 3, 7) pi/12
EXTRA_RATIONAL = (
    (staircase_table([1, 3], [2, 3]), 2),
    (staircase_table([1, 2, 4, 5], [1, 3, 4, 6]), 4),
    (pi_triangle(1, 2, 7), 3),
    (pi_triangle(2, 3, 12), 4),
)
class TestRationalUnfolding:
    def test_square_torus(self, square):
        ts = build_rational_unfolding(square)
        assert ts.N == 2
        assert len(ts.copies) == 4
        assert ts.genus == 1
        assert all(c.angle_over_pi == 2 for c in ts.cone_points)
        assert ts.is_npc
        assert not ts.strict_cone_condition  # no angle exceeds 2*pi
    def test_pentagon_angle_triangle(self):
        h = math.tan(math.pi / 5) / 2
        t = validate_table(
            [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, h)],
            ["a", "b", "c"],
            "tri5",
        )
        ts = build_rational_unfolding(t)
        assert ts.N == 5
        assert len(ts.copies) == 10
        assert ts.genus == 2
        angles = sorted(c.angle_over_pi for c in ts.cone_points)
        assert angles == [2, 2, 6]
        assert sum(c.multiplicity for c in ts.cone_points) == 3
        assert ts.strict_cone_condition is False
    def test_right_triangle_236(self):
        t = validate_table(
            [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, math.tan(math.pi / 3))],
            ["a", "b", "c"],
            "tri6",
        )
        ts = build_rational_unfolding(t)
        assert ts.N == 6
        assert len(ts.copies) == 12
        assert ts.genus == 1
        assert all(c.angle_over_pi == 2 for c in ts.cone_points)
    def test_every_edge_glued_once(self, square):
        ts = build_rational_unfolding(square)
        seen = set()
        for gl in ts.gluings:
            for copy, lab in ((gl.copy_a, gl.edge_label), (gl.copy_b, gl.edge_label)):
                key = (copy, lab)
                assert key not in seen
                seen.add(key)
        assert len(seen) == 2 * ts.N * square.n
    def test_gauss_bonnet(self, square):
        for table in (square, *(t for t, _ in EXTRA_RATIONAL)):
            ts = build_rational_unfolding(table)
            excess = sum(
                (2 - c.angle_over_pi) * c.multiplicity for c in ts.cone_points
            )
            assert excess == 2 * ts.euler_characteristic
    def test_euler_oracle_from_export(self, square):
        h5 = math.tan(math.pi / 5) / 2
        tri5 = validate_table(
            [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, h5)], list("abc")
        )
        for table, genus in ((square, 1), (tri5, 2), *EXTRA_RATIONAL):
            ts = build_rational_unfolding(table)
            chi, exported_genus = euler_characteristic_from_export(format_surface(ts))
            assert chi == ts.euler_characteristic
            assert exported_genus == genus == (2 - chi) // 2
    def test_gluing_translations_exact_and_parallel(self, square):
        ts = build_rational_unfolding(square)
        for gl in ts.gluings:
            ea = ts.placements[gl.copy_a].apply_segment(
                square.edge(square.edge_index(gl.edge_label))
            )
            eb = ts.placements[gl.copy_b].apply_segment(
                square.edge(square.edge_index(gl.edge_label))
            )
            assert geom.points_equal(
                ea.a.translate(gl.translation), eb.a
            ) and geom.points_equal(ea.b.translate(gl.translation), eb.b)
    def test_not_rational(self):
        t = validate_table(
            [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.3, 0.77)], list("abc")
        )
        with pytest.raises(NotRational):
            build_rational_unfolding(t)
    def test_bound_exceeded(self):
        # right trapezoid, angles (pi/3, pi/2, pi/2, 2pi/3): all q <= 5, lcm = 6
        t = validate_table(
            [
                Point2(0.0, 0.0),
                Point2(1.0, 0.0),
                Point2(1.0, 1.0),
                Point2(1.0 / math.sqrt(3.0), 1.0),
            ],
            list("abcd"),
        )
        with pytest.raises(NExceedsBound):
            build_rational_unfolding(t, order_bound=5)
        assert build_rational_unfolding(t).N == 6
    def test_export_square_stable(self, square):
        text = format_surface(build_rational_unfolding(square))
        assert text.splitlines()[0] == "surface square copies 4 genus 1"
        assert "cone 2 x4" in text
        assert text == format_surface(build_rational_unfolding(square))
