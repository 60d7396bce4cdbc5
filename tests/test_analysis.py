import math
from fractions import Fraction as F

import pytest

from polybounce import geom
from polybounce.analysis import (
    INDISTINGUISHABLE,
    NON_TRANSLATION,
    SEPARATED,
    DiagonalRecord,
    compare_spectra,
    enumerate_generalized_diagonals,
    flag_singular_words,
    periodic_orbit_for_word,
    resimulate_diagonal,
    sample_bounce_language,
    sample_states,
    witness_at_offset,
)
from polybounce.cli import parse_word
from polybounce.errors import (
    BilliardError,
    IncompleteBijection,
    NonPositiveLength,
    RepeatedLabel,
    UnknownVertex,
    WindowMismatch,
    WindowTooLong,
)
from polybounce.flow import bounce_word, trace
from polybounce.geom import EXACT, Point2
from polybounce.table import format_table, validate_table
from conftest import exact_points, run_cli_process


def altitude_feet(a, b, c):
    """Feet of the three altitudes of triangle abc (pedal triangle)."""

    def foot(p, q, r):
        # foot of the perpendicular from p onto line q-r
        u = r - q
        t = (p - q).dot(u) / u.norm_sq()
        return Point2(q.x + t * u.dx, q.y + t * u.dy)

    return foot(c, a, b), foot(a, b, c), foot(b, c, a)


class TestPeriodic:
    def test_vertical_pair(self, square):
        res = periodic_orbit_for_word(square, ("3", "1"))
        assert res.exists and res.reason == "Found"
        assert (res.translation.dx, res.translation.dy) == (0, 2)
        assert res.family_width == 1
        assert not res.doubled
        lo, hi = res.corridor_interval
        assert hi - lo == 2  # raw inner products with the normal (-2, 0)

    def test_witness_closes_up(self, square):
        res = periodic_orbit_for_word(square, ("3", "1"))
        traj = trace(res.witness_start, 2)
        assert bounce_word(traj).symbols == ("3", "1")
        last = traj.hits[-1]
        assert geom.points_equal(last.point, res.witness_start.position)
        assert (last.direction.dx, last.direction.dy) == (
            res.witness_start.direction.dx,
            res.witness_start.direction.dy,
        )

    def test_rotation_composite_rejected(self, square):
        res = periodic_orbit_for_word(square, ("2", "3"))
        assert not res.exists and res.reason == NON_TRANSLATION

    def test_horizontal_pair(self, square):
        res = periodic_orbit_for_word(square, ("2", "4"))
        assert res.exists
        assert (res.translation.dx, res.translation.dy) == (2, 0)
        assert res.family_width == 1

    def test_slope_half_word(self, square):
        res = periodic_orbit_for_word(square, tuple("234214"))
        assert res.exists
        assert (abs(res.translation.dx), abs(res.translation.dy)) == (4, 2)

    def test_wrap_repeat_cannot_close(self, square):
        res = periodic_orbit_for_word(square, ("3", "1", "3", "1", "3", "2"))
        assert not res.exists

    def test_internal_repeat_raises(self, square):
        with pytest.raises(RepeatedLabel):
            periodic_orbit_for_word(square, ("1", "1"))

    def test_odd_word_doubled_seam_repeat_raises(self, square):
        with pytest.raises(RepeatedLabel):
            periodic_orbit_for_word(square, ("1", "2", "1"))

    def test_fagnano_exact_pedal_feet(self, acute_triangle):
        res = periodic_orbit_for_word(acute_triangle, ("1", "2", "3"))
        assert res.exists and res.doubled
        assert res.word == ("1", "2", "3", "1", "2", "3")
        traj = trace(res.witness_start, 6)
        f1, f2, f3 = altitude_feet(*acute_triangle.vertices)
        hits = [h.point for h in traj.hits]
        # exact equality: the corridor midpoint is the pedal orbit
        assert geom.points_equal(hits[0], f1) and geom.points_equal(hits[3], f1)
        assert geom.points_equal(hits[1], f2) and geom.points_equal(hits[4], f2)
        assert geom.points_equal(hits[2], f3) and geom.points_equal(hits[5], f3)

    def test_flat_strip_parallel_family(self, square):
        res = periodic_orbit_for_word(square, ("3", "1"))
        for i in range(1, 11):
            state = witness_at_offset(res, F(i, 11))
            assert state is not None
            traj = trace(state, 2)
            assert bounce_word(traj).symbols == ("3", "1")

    def test_family_width_irrational_goes_float(self, square):
        res = periodic_orbit_for_word(square, tuple("234214"))
        # |T| = sqrt(20): width is irrational, reported as float
        assert isinstance(res.family_width, float)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: the reported band is the gate projections "
        "alone; only its upper half closes up on this nonconvex table",
    )
    def test_lshape_band_closes_up(self, lshape):
        res = periodic_orbit_for_word(lshape, ("f", "e", "d", "f", "a", "b"))
        assert res.exists
        state = witness_at_offset(res, F(1, 3))
        assert state is not None
        traj = trace(state, len(res.word))
        assert bounce_word(traj).symbols == res.word
        assert geom.points_equal(traj.hits[-1].point, state.position)

    def test_fagnano_float_backend(self):
        tri = validate_table(
            [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.3, 0.8)],
            ["1", "2", "3"],
        )
        res = periodic_orbit_for_word(tri, ("1", "2", "3"))
        assert res.exists
        traj = trace(res.witness_start, 6)
        f1, f2, f3 = altitude_feet(*tri.vertices)
        for hit, foot in zip(traj.hits, [f1, f2, f3, f1, f2, f3]):
            assert abs(hit.point.x - foot.x) < 1e-9
            assert abs(hit.point.y - foot.y) < 1e-9


class TestDiagonals:
    def test_square_lattice_oracle(self, square):
        records = enumerate_generalized_diagonals(square, 0, 5)
        lattice = sorted(
            (F(p * p + q * q), (F(p), F(q)))
            for p in range(1, 6)
            for q in range(1, 6)
            if math.gcd(p, q) == 1 and p * p + q * q <= 25
        )
        assert len(records) == len(lattice) == 11
        got = sorted((r.length_sq, (r.target_image.x, r.target_image.y)) for r in records)
        assert got == lattice

    def test_corner_diagonal_empty_word(self, square):
        records = enumerate_generalized_diagonals(square, 0, 2)
        empty = [r for r in records if r.word == ()]
        assert len(empty) == 1
        assert empty[0].length_sq == 2
        assert (empty[0].target_image.x, empty[0].target_image.y) == (1, 1)

    def test_single_reflection_diagonal(self, square):
        records = enumerate_generalized_diagonals(square, 0, 3)
        by_word = {r.word: r for r in records}
        r = by_word[("2",)]
        assert (r.target_image.x, r.target_image.y) == (2, 1)
        assert r.length_sq == 5

    def test_all_records_resimulate(self, square, acute_triangle, lshape):
        for table in (square, acute_triangle, lshape):
            for r in enumerate_generalized_diagonals(table, 0, 3):
                assert resimulate_diagonal(table, r)

    def test_sorted_by_length_then_word(self, square):
        records = enumerate_generalized_diagonals(square, 0, 5)
        keys = [(r.length_sq, r.word) for r in records]
        assert keys == sorted(keys)

    def test_other_source_vertex(self, square):
        records = enumerate_generalized_diagonals(square, 2, 5)
        assert len(records) == 11  # symmetry of the square

    def test_reflex_source_vertex(self, lshape):
        # vertex 3 = (1,1) is the reflex corner
        records = enumerate_generalized_diagonals(lshape, 3, 2)
        assert records
        for r in records:
            assert resimulate_diagonal(lshape, r)

    @pytest.mark.parametrize("radius", [F(3), F(5), F(23, 4)], ids=str)
    def test_lshape_records_stay_inside(self, lshape, radius):
        # a search narrowed by gates alone reported diagonals through a wall,
        # such as the empty word from vertex 1 to (1, 2) across (3/2, 1)
        for vertex in range(lshape.n):
            records = enumerate_generalized_diagonals(lshape, vertex, radius)
            assert records
            assert all(resimulate_diagonal(lshape, r) for r in records)

    def test_lshape_uncapped_search_ends(self, lshape, tmp_path):
        # the word c,a,f,e repeated unfolds to the identity every 8 letters,
        # so gate-only narrowing never closed that branch at radius 6
        path = tmp_path / "lshape.table"
        path.write_text(format_table(lshape), encoding="utf-8")
        argv = ["diagonals", "--table", str(path), "--vertex", "1", "--max-len", "6"]
        done = run_cli_process(argv, timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        lines = done.stdout.splitlines()
        assert lines
        for line in lines:
            word, length_sq, endpoint = line.split("\t")
            target = Point2(*(F(c) for c in endpoint.split(",")))
            record = DiagonalRecord(parse_word(word), 1, target, F(length_sq))
            assert resimulate_diagonal(lshape, record)

    def test_blocked_collinear_target_excluded(self, square):
        records = enumerate_generalized_diagonals(square, 0, 5)
        targets = {(r.target_image.x, r.target_image.y) for r in records}
        assert (2, 2) not in targets  # blocked by the corner image (1,1)
        assert (4, 2) not in targets  # blocked by (2,1)

    def test_bad_vertex(self, square):
        with pytest.raises(UnknownVertex):
            enumerate_generalized_diagonals(square, 9, 5)

    def test_bad_length(self, square):
        with pytest.raises(NonPositiveLength):
            enumerate_generalized_diagonals(square, 0, 0)

    def test_float_backend_matches_exact(self, square):
        sq = validate_table(
            [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(1.0, 1.0), Point2(0.0, 1.0)],
            ["1", "2", "3", "4"],
        )
        float_records = enumerate_generalized_diagonals(sq, 0, 4)
        exact_records = enumerate_generalized_diagonals(square, 0, 4)
        assert [r.word for r in float_records] == [r.word for r in exact_records]


def brute_force_diagonals(table, source_vertex, max_length, max_depth):
    """Exhaustive oracle: try every label word up to max_depth, every final
    vertex image as a target, and keep exactly those the flow re-simulation
    confirms.  No angular sectors involved."""
    from polybounce.unfolding import unfold_word

    v0 = table.vertices[source_vertex]
    limit_sq = F(max_length) * F(max_length)
    found = set()

    def visit(word):
        corridor = unfold_word(table, word)
        placement = corridor.copies[-1]
        for v in table.vertices:
            target = placement.apply(v)
            if geom.points_equal(target, v0):
                continue
            d2 = (target - v0).norm_sq()
            if d2 > limit_sq:
                continue
            rec = DiagonalRecord(tuple(word), source_vertex, target, d2)
            try:
                ok = resimulate_diagonal(table, rec)
            except BilliardError:  # aiming out of the table is not a diagonal
                ok = False
            if ok:
                found.add((tuple(word), (target.x, target.y)))
        if len(word) >= max_depth:
            return
        for label in table.labels:
            if word and label == word[-1]:
                continue
            visit(word + (label,))

    visit(())
    return found


class TestDiagonalCompleteness:
    """BFS output must match the exhaustive word-enumeration oracle."""

    @pytest.mark.parametrize("vertex", [0, 1])
    def test_square(self, square, vertex):
        got = {
            (r.word, (r.target_image.x, r.target_image.y))
            for r in enumerate_generalized_diagonals(
                square, vertex, 4, max_word_length=5
            )
        }
        assert got == brute_force_diagonals(square, vertex, 4, 5)

    @pytest.mark.parametrize("vertex", [0, 2, 3])
    def test_nonconvex_lshape(self, lshape, vertex):
        got = {
            (r.word, (r.target_image.x, r.target_image.y))
            for r in enumerate_generalized_diagonals(
                lshape, vertex, 3, max_word_length=4
            )
        }
        assert got == brute_force_diagonals(lshape, vertex, 3, 4)

    def test_acute_triangle(self, acute_triangle):
        got = {
            (r.word, (r.target_image.x, r.target_image.y))
            for r in enumerate_generalized_diagonals(
                acute_triangle, 0, 3, max_word_length=6
            )
        }
        assert got == brute_force_diagonals(acute_triangle, 0, 3, 6)


class TestSampling:
    def test_deterministic(self, square):
        a = sample_bounce_language(square, 3, 40, 7)
        b = sample_bounce_language(square, 3, 40, 7)
        assert a.words == b.words

    def test_seed_changes_stream(self, square):
        a = sample_states(square, 5, 0)
        b = sample_states(square, 5, 1)
        assert [s.position for s in a] != [s.position for s in b]

    def test_k1_full_alphabet(self, square):
        lang = sample_bounce_language(square, 1, 50, 0)
        assert lang.words == {("1",), ("2",), ("3",), ("4",)}

    def test_k2_contents(self, square):
        lang = sample_bounce_language(square, 2, 150, 0)
        assert ("3", "1") in lang.words
        assert ("2", "3") in lang.words
        assert all(w[0] != w[1] for w in lang.words)

    def test_rectangle_language_equal(self, square, rect21):
        l1 = sample_bounce_language(square, 6, 200, 4)
        l2 = sample_bounce_language(rect21, 6, 200, 4)
        identity = {l: l for l in "1234"}
        assert compare_spectra(l1, l2, identity).kind == INDISTINGUISHABLE

    def test_provenance(self, square):
        lang = sample_bounce_language(square, 2, 30, 9)
        assert lang.provenance["trajectories"] == 30
        assert lang.provenance["backend"] == EXACT


class TestCompare:
    def test_self_indistinguishable(self, square):
        lang = sample_bounce_language(square, 4, 60, 2)
        res = compare_spectra(lang, lang, {l: l for l in "1234"})
        assert res.kind == INDISTINGUISHABLE

    def test_separation_square_vs_quad(self, square):
        quad = validate_table(
            exact_points([(0, 0), (1, 0), (F(11, 10), 1), (0, F(9, 10))]),
            ["1", "2", "3", "4"],
        )
        l1 = sample_bounce_language(square, 6, 400, 0)
        l2 = sample_bounce_language(quad, 6, 400, 0)
        res = compare_spectra(l1, l2, {l: l for l in "1234"})
        assert res.kind == SEPARATED
        assert res.witness is not None and res.side in ("first", "second")

    def test_symmetry(self, square):
        quad = validate_table(
            exact_points([(0, 0), (1, 0), (F(11, 10), 1), (0, F(9, 10))]),
            ["a", "b", "c", "d"],
        )
        l1 = sample_bounce_language(square, 5, 150, 1)
        l2 = sample_bounce_language(quad, 5, 150, 1)
        fwd = compare_spectra(l1, l2, dict(zip("1234", "abcd")))
        rev = compare_spectra(l2, l1, dict(zip("abcd", "1234")))
        assert (fwd.kind == SEPARATED) == (rev.kind == SEPARATED)
        if fwd.kind == SEPARATED:
            assert {fwd.side, rev.side} == {"first", "second"}

    def test_window_mismatch(self, square):
        a = sample_bounce_language(square, 2, 10, 0)
        b = sample_bounce_language(square, 3, 10, 0)
        with pytest.raises(WindowMismatch):
            compare_spectra(a, b, {l: l for l in "1234"})

    def test_incomplete_bijection(self, square):
        a = sample_bounce_language(square, 2, 10, 0)
        with pytest.raises(IncompleteBijection):
            compare_spectra(a, a, {"1": "1"})
        with pytest.raises(IncompleteBijection):
            compare_spectra(a, a, {"1": "1", "2": "1", "3": "3", "4": "4"})


class TestFlagSingular:
    def test_suffix_match(self):
        flagged = flag_singular_words([("4", "1", "2")], [("2",)], 1)
        assert flagged == {("4", "1", "2")}

    def test_empty_diagonals(self):
        assert flag_singular_words([("1", "2", "3")], [], 2) == set()

    def test_prefix_match(self):
        flagged = flag_singular_words([("3", "1", "4")], [("3", "1", "2")], 2)
        assert flagged == {("3", "1", "4")}

    def test_periodic_word_against_square_diagonals(self, square):
        diagonals = [r.word for r in enumerate_generalized_diagonals(square, 0, 6)]
        periodic = tuple("31" * 4)  # 3,1,3,1,3,1,3,1
        expect = any(d[-4:] == ("3", "1", "3", "1") for d in diagonals if len(d) >= 4)
        expect = expect or any(
            d[:4] == ("3", "1", "3", "1") for d in diagonals if len(d) >= 4
        )
        flagged = flag_singular_words([periodic], diagonals, 4)
        assert (periodic in flagged) == expect

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            flag_singular_words([("1", "2")], [("1", "2", "3")], 3)
