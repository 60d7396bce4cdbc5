import pathlib
from fractions import Fraction

import pytest

from polybounce import geom
from polybounce.flow import RayState
from polybounce.geom import EXACT, Point2, Vec2, point, ray_segment_hit
from polybounce.table import INSIDE, locate_point, validate_table

TABLES = pathlib.Path(__file__).resolve().parent.parent / "tables"


@pytest.fixture(autouse=True)
def _reset_float_tolerance():
    yield
    geom.set_float_tolerance(1e-9)


def exact_points(coords):
    return [point(x, y, EXACT) for x, y in coords]


def reference_first_hit(origin, d, segments):
    """Oracle for geom.first_hit: ray_segment_hit on every segment, the
    smallest t wins and ties go to the lowest index."""
    best = None
    for i, s in enumerate(segments):
        h = ray_segment_hit(origin, d, s)
        if h is not None and (best is None or h.t < best[1].t):
            best = (i, h)
    return best


def reference_halton(index, base):
    """Oracle for analysis._radical_inverse: the Halton coordinate built
    digit by digit in Fractions."""
    result = Fraction(0)
    f = Fraction(1, base)
    i = index
    while i > 0:
        result += f * (i % base)
        i //= base
        f /= base
    return result


def reference_sample_states(table, count, seed):
    """Oracle for analysis.sample_states: Fraction Halton coordinates, with
    the f64 samples rounded from them."""
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
        u_x = reference_halton(index, 2)
        u_y = reference_halton(index, 3)
        u_t = reference_halton(index, 5)
        u_s = reference_halton(index, 7)
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
    return states


@pytest.fixture
def square():
    return validate_table(
        exact_points([(0, 0), (1, 0), (1, 1), (0, 1)]), ["1", "2", "3", "4"], "square"
    )


@pytest.fixture
def rect21():
    return validate_table(
        exact_points([(0, 0), (2, 0), (2, 1), (0, 1)]), ["1", "2", "3", "4"], "rect21"
    )


@pytest.fixture
def acute_triangle():
    from fractions import Fraction as F

    return validate_table(
        [point(0, 0, EXACT), point(1, 0, EXACT), Point2(F(3, 10), F(4, 5))],
        ["1", "2", "3"],
        "acute",
    )


@pytest.fixture
def lshape():
    # nonconvex right-angled hexagon
    return validate_table(
        exact_points([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
        ["a", "b", "c", "d", "e", "f"],
        "lshape",
    )
