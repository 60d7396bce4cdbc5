import math
from fractions import Fraction as F

import pytest

from polybounce import geom
from polybounce.analysis import sample_states
from polybounce.errors import (
    BackendMismatch,
    DegenerateDirection,
    NonIntervalSupport,
    StartOutsideTable,
)
from polybounce.flow import (
    BACKWARD,
    PaddedWord,
    RayState,
    SingularHit,
    bounce_word,
    classify_padded_word,
    trace,
    trace_backward,
)
from polybounce.geom import EXACT, Point2, Vec2, direction, point
from polybounce.table import validate_table


def square_word_oracle(x0, y0, dx, dy, count):
    """Bounce word of the unit-square billiard via the unfolded straight
    line in the reflected-square grid: crossing X=k names the right/left
    edge by parity of k, crossing Y=k the top/bottom edge.
    """
    events = []
    if dx:
        step = 1 if dx > 0 else -1
        k = 1 if dx > 0 else 0
        for _ in range(4 * count):
            t = (F(k) - x0) / dx
            events.append((t, "2" if k % 2 == 1 else "4"))
            k += step
    if dy:
        step = 1 if dy > 0 else -1
        k = 1 if dy > 0 else 0
        for _ in range(4 * count):
            t = (F(k) - y0) / dy
            events.append((t, "3" if k % 2 == 1 else "1"))
            k += step
    events.sort()
    return tuple(label for _, label in events[:count])


@pytest.fixture
def mid():
    return point(F(1, 2), F(1, 2), EXACT)


class TestTrace:
    def test_perpendicular(self, square, mid):
        traj = trace(RayState(mid, direction(0, 1, EXACT), square), 4)
        assert bounce_word(traj).symbols == ("3", "1", "3", "1")
        assert not traj.is_singular

    def test_slope_half_matches_unfolding_oracle(self, square, mid):
        traj = trace(RayState(mid, direction(2, 1, EXACT), square), 12)
        word = bounce_word(traj).symbols
        assert word == square_word_oracle(F(1, 2), F(1, 2), F(2), F(1), 12)
        assert word == tuple("2,3,4,2,1,4,2,3,4,2,1,4".split(","))
        assert word[:6] == word[6:]  # period 6

    def test_random_slopes_match_oracle(self, square, mid):
        for dx, dy in ((3, 1), (5, 2), (1, 3), (-2, 1), (7, -3)):
            traj = trace(RayState(mid, direction(dx, dy, EXACT), square), 20)
            if traj.is_singular:
                continue
            assert bounce_word(traj).symbols == square_word_oracle(
                F(1, 2), F(1, 2), F(dx), F(dy), 20
            )

    def test_corner_shot_singular(self, square, mid):
        traj = trace(RayState(mid, direction(1, 1, EXACT), square), 10)
        assert isinstance(traj.terminated_by, SingularHit)
        assert traj.terminated_by.vertex_index == 2  # vertex (1,1)
        assert traj.hits == ()

    def test_two_hits_then_corner(self, square, mid):
        # direction (5,1) from the center folds to the corner image (3,1)
        traj = trace(RayState(mid, direction(5, 1, EXACT), square), 10)
        assert bounce_word(traj).symbols == ("2", "4")
        assert traj.is_singular
        assert bounce_word(traj).singular

    def test_zero_bounces(self, square, mid):
        traj = trace(RayState(mid, direction(0, 1, EXACT), square), 0)
        assert bounce_word(traj).symbols == ()

    def test_start_outside(self, square):
        with pytest.raises(StartOutsideTable):
            trace(RayState(point(2, 2, EXACT), direction(0, 1, EXACT), square), 1)

    def test_float_start_on_exact_table_raises(self, square):
        with pytest.raises(BackendMismatch):
            trace(RayState(Point2(0.0, 0.0), Vec2(0.6, 0.8), square), 3)

    def test_grazing_start_rejected(self, square):
        state = RayState(point(F(1, 2), 0, EXACT), direction(1, 0, EXACT), square)
        with pytest.raises(DegenerateDirection):
            trace(state, 1)

    def test_on_edge_aiming_out_rejected(self, square):
        state = RayState(point(F(1, 2), 0, EXACT), direction(0, -1, EXACT), square)
        with pytest.raises(StartOutsideTable):
            trace(state, 1)

    def test_vertex_start_into_interior(self, square):
        state = RayState(point(0, 0, EXACT), direction(2, 1, EXACT), square)
        traj = trace(state, 3)
        assert bounce_word(traj).symbols[:1] == ("2",)

    def test_vertex_start_outside_cone_rejected(self, square):
        state = RayState(point(0, 0, EXACT), direction(-1, 1, EXACT), square)
        with pytest.raises(DegenerateDirection):
            trace(state, 1)

    def test_float_near_vertex_guard(self, square_float):
        state = RayState(
            Point2(0.5, 0.5), geom.renormalized(Vec2(0.5 + 1e-12, 0.5)), square_float
        )
        traj = trace(state, 10)
        assert traj.is_singular

    def test_reflex_table_trace(self, lshape):
        state = RayState(point(F(1, 2), F(1, 2), EXACT), direction(3, 2, EXACT), lshape)
        traj = trace(state, 30)
        for h in traj.hits:
            assert h.edge_label in lshape.labels


@pytest.fixture
def square_float():
    return validate_table(
        [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(1.0, 1.0), Point2(0.0, 1.0)],
        ["1", "2", "3", "4"],
        "square",
    )


class TestInvariants:
    def test_optical_reflection_exact(self, square, acute_triangle):
        for table in (square, acute_triangle):
            for state in sample_states(table, 10, 1):
                traj = trace(state, 12)
                incoming = state.direction
                for h in traj.hits:
                    edge = table.edge(table.edge_index(h.edge_label))
                    tangent = edge.direction()
                    normal = tangent.perp()
                    assert incoming.dot(tangent) == h.direction.dot(tangent)
                    assert incoming.dot(normal) == -h.direction.dot(normal)
                    incoming = h.direction

    def test_float_norm_drift(self, square_float):
        state = RayState(
            Point2(0.32, 0.41), geom.renormalized(Vec2(3.0, 1.0)), square_float
        )
        traj = trace(state, 10_000)
        assert len(traj.hits) == 10_000
        eps = geom.float_tolerance()
        for h in traj.hits[::500]:
            assert abs(math.hypot(h.direction.dx, h.direction.dy) - 1.0) < 100 * eps

    def test_affine_equivariance_diag(self, square, rect21):
        for state in sample_states(square, 25, 3):
            mapped = RayState(
                Point2(2 * state.position.x, state.position.y),
                Vec2(2 * state.direction.dx, state.direction.dy),
                rect21,
            )
            w1 = bounce_word(trace(state, 40)).symbols
            w2 = bounce_word(trace(mapped, 40)).symbols
            assert w1 == w2

    def test_time_reversal(self, square):
        for state in sample_states(square, 10, 5):
            traj = trace(state, 8)
            if traj.is_singular:
                continue
            k = len(traj.hits)
            incoming_last = traj.hits[-2].direction if k >= 2 else state.direction
            rev = RayState(traj.hits[-1].point, -incoming_last, square)
            back = trace(rev, k - 1)
            expected = tuple(h.edge_label for h in traj.hits[:-1])[::-1]
            assert tuple(h.edge_label for h in back.hits) == expected


class TestBackward:
    def test_perpendicular_backward(self, square, mid):
        traj = trace_backward(RayState(mid, direction(0, 1, EXACT), square), 2)
        word = bounce_word(traj)
        assert word.symbols == ("1", "3")  # indices -1, -2
        assert word.direction == BACKWARD

    def test_equals_negated_trace(self, square, mid):
        state = RayState(mid, direction(2, 1, EXACT), square)
        back = trace_backward(state, 6)
        neg = trace(RayState(mid, direction(-2, -1, EXACT), square), 6)
        assert [h.edge_label for h in back.hits] == [h.edge_label for h in neg.hits]

    def test_corner_shot_backward(self, square, mid):
        traj = trace_backward(RayState(mid, direction(1, 1, EXACT), square), 5)
        assert traj.is_singular
        assert traj.terminated_by.vertex_index == 0  # vertex (0,0)


class TestPaddedWords:
    def test_finite_extension(self):
        entries = {i: None for i in range(-5, 6)}
        entries.update({0: "1", 1: "2", 2: "3"})
        w = PaddedWord.from_entries(entries)
        cls = classify_padded_word(w)
        assert cls.kind == "finite" and (cls.start, cls.end) == (0, 2)

    def test_all_zero_is_empty(self):
        w = PaddedWord.from_entries({i: None for i in range(-3, 4)})
        assert classify_padded_word(w).kind == "empty"

    def test_forward_infinite(self):
        w = PaddedWord.forward_infinite(5, "abc")
        cls = classify_padded_word(w)
        assert cls.kind == "forward_infinite" and cls.start == 5

    def test_backward_infinite_and_bi_infinite(self):
        assert classify_padded_word(PaddedWord.backward_infinite(-1)).kind == (
            "backward_infinite"
        )
        assert classify_padded_word(PaddedWord.bi_infinite("ab")).kind == "bi_infinite"

    def test_non_interval_support_rejected(self):
        entries = {0: "1", 1: None, 2: "2"}
        with pytest.raises(NonIntervalSupport):
            PaddedWord.from_entries(entries)
