"""Property tests of geometric invariants, on fixed pseudo-random examples."""

from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

from polybounce.analysis import enumerate_generalized_diagonals, resimulate_diagonal
from polybounce.geom import Point2, Vec2, orientation, sign_cross
from polybounce.table import validate_table

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

lattice_points = st.tuples(st.integers(0, 6), st.integers(0, 6))
small_vectors = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@PROPERTY
@given(lattice_points, lattice_points, lattice_points)
def test_lattice_triangle_diagonals(a, b, c):
    corners = (a, b, c)
    exact = [Point2(F(x), F(y)) for x, y in corners]
    assume(orientation(*exact) != 0)
    table = validate_table(exact, ["a", "b", "c"])
    floats = validate_table([Point2(float(x), float(y)) for x, y in corners], ["a", "b", "c"])
    for vertex in range(3):
        records = enumerate_generalized_diagonals(table, vertex, 3)
        for r in records:
            assert resimulate_diagonal(table, r)
        # records of equal exact length may come out in another order in f64
        float_records = enumerate_generalized_diagonals(floats, vertex, 3)
        assert sorted(r.word for r in float_records) == sorted(r.word for r in records)


@PROPERTY
@given(small_vectors, small_vectors)
def test_sign_cross_antisymmetric_and_backend_free(u, v):
    eu, ev = Vec2(F(u[0]), F(u[1])), Vec2(F(v[0]), F(v[1]))
    fu, fv = Vec2(float(u[0]), float(u[1])), Vec2(float(v[0]), float(v[1]))
    s = sign_cross(eu, ev)
    assert sign_cross(ev, eu) == -s
    assert sign_cross(fu, fv) == s
    assert sign_cross(fv, fu) == -s
