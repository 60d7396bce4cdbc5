import hashlib
import io

import pytest

from polybounce import svg
from polybounce.cli import format_word, main, parse_word
from polybounce.flow import RayState, trace
from polybounce.geom import EXACT, direction, point
from polybounce.surface import load_glued_polygon
from polybounce.table import format_table
from conftest import TABLES, run_cli_process

SQUARE = str(TABLES / "square.table")
QUAD = str(TABLES / "quad.table")
OCTAGON = str(TABLES / "octagon.surface")


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestWordIO:
    def test_round_trip(self):
        assert parse_word("2,3,4") == ("2", "3", "4")
        assert parse_word("()") == ()
        assert format_word(()) == "()"
        assert format_word(("a", "b")) == "a,b"


class TestCommands:
    def test_bounce(self):
        code, out, err = run(
            ["bounce", "--table", SQUARE, "--start", "1/2", "1/2",
             "--dir", "2", "1", "--bounces", "12"]
        )
        assert code == 0 and err == ""
        assert out == "2,3,4,2,1,4,2,3,4,2,1,4\n"

    def test_bounce_backward(self):
        code, out, _ = run(
            ["bounce", "--table", SQUARE, "--start", "1/2", "1/2",
             "--dir", "0", "1", "--bounces", "2", "--backward", "2"]
        )
        assert code == 0
        assert out == "3,1\nbackward: 1,3\n"

    def test_bounce_singular(self):
        code, out, _ = run(
            ["bounce", "--table", SQUARE, "--start", "1/2", "1/2",
             "--dir", "1", "1", "--bounces", "5"]
        )
        assert code == 0
        assert out == "()\n# singular vertex=2\n"

    def test_periodic_rows(self):
        code, out, _ = run(["periodic", "--table", SQUARE, "--word", "3,1"])
        assert code == 0 and out == "3,1\ttrue\t0\t2\t1\n"
        code, out, _ = run(["periodic", "--table", SQUARE, "--word", "2,3"])
        assert code == 0
        assert out == "2,3\tfalse\t-\t-\t-\tNonTranslationComposite\n"

    def test_diagonals_rows(self):
        code, out, _ = run(
            ["diagonals", "--table", SQUARE, "--vertex", "0", "--max-len", "3"]
        )
        assert code == 0
        assert out.splitlines() == ["()\t2\t1,1", "2\t5\t2,1", "3\t5\t1,2"]

    def test_unfold_word(self):
        code, out, _ = run(["unfold", "--table", SQUARE, "--word", "3,1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "corridor word=3,1 copies=3"
        assert lines[1].startswith("composite translation det=1")
        assert lines[2] == "gate 1 3 1,1 0,1"
        assert lines[3] == "gate 2 1 0,2 1,2"

    def test_unfold_rational(self):
        code, out, _ = run(["unfold", "--table", SQUARE, "--rational"])
        assert code == 0
        assert out.splitlines()[0] == "surface square copies 4 genus 1"

    def test_unfold_svg(self, tmp_path):
        target = tmp_path / "corr.svg"
        code, out, _ = run(
            ["unfold", "--table", SQUARE, "--word", "3,1", "--svg", str(target)]
        )
        assert code == 0
        doc = target.read_text()
        assert doc.startswith("<?xml")
        assert doc.count("<polygon") == 3
        assert doc.count("<line") == 2  # the two gates

    def test_spectrum(self):
        code, out, _ = run(
            ["spectrum", "--table", SQUARE, "--k", "1", "--budget", "30"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# k=1 budget=30 seed=0")
        assert lines[1:] == ["1", "2", "3", "4"]

    def test_compare(self):
        code, out, _ = run(
            ["compare", "--table1", SQUARE, "--table2", QUAD, "--k", "6",
             "--budget", "400", "--map", "1=1,2=2,3=3,4=4", "--backend", "f64"]
        )
        assert code == 0
        assert out.startswith("Separated k=6 witness=")

    def test_cutting(self):
        code, out, _ = run(
            ["cutting", "--surface", OCTAGON, "--start", "5", "1",
             "--dir", "0", "1", "--crossings", "6"]
        )
        assert code == 0 and out == "A,A,A,A,A,A\n"

    def test_flag_singular(self, tmp_path):
        lang = tmp_path / "lang.txt"
        lang.write_text("4,1,2\n3,1,4\n")
        diag = tmp_path / "diag.txt"
        diag.write_text("2\t5\t2,1\n")
        code, out, _ = run(
            ["flag-singular", "--language", str(lang), "--diagonals", str(diag),
             "--suffix", "1"]
        )
        assert code == 0
        assert out == "4,1,2\n"


class TestErrors:
    def test_domain_error_exit_1(self):
        code, out, err = run(["periodic", "--table", SQUARE, "--word", "1,1"])
        assert code == 1
        assert "RepeatedLabel" in err and out == ""

    def test_missing_file_exit_1(self):
        code, _, err = run(["bounce", "--table", "/nonexistent.table",
                            "--start", "0", "0", "--dir", "1", "1",
                            "--bounces", "1"])
        assert code == 1 and "error" in err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["bounce", "--table", SQUARE])
        assert exc.value.code == 2

    BOUNCE = ["bounce", "--table", SQUARE, "--start", "1/2", "1/2", "--dir", "2", "1"]
    SPECTRUM = ["spectrum", "--table", SQUARE]
    CUTTING = ["cutting", "--surface", OCTAGON, "--start", "5", "1", "--dir", "0", "1"]
    BAD_NUMBERS = [
        BOUNCE + ["--bounces", "-1"],
        BOUNCE + ["--bounces", "3", "--backward", "-1"],
        SPECTRUM + ["--k", "0", "--budget", "5"],
        SPECTRUM + ["--k", "1", "--budget", "0"],
        BOUNCE + ["--bounces", "3", "--eps", "0"],
        BOUNCE + ["--bounces", "3", "--eps", "nan"],
        CUTTING + ["--crossings", "-1"],
    ]

    @pytest.mark.parametrize("argv", BAD_NUMBERS, ids=lambda a: " ".join(a[-2:]))
    def test_bad_number_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    def test_parse_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.table"
        bad.write_text("vertex 0 zero\nlabels a\n")
        code, _, err = run(["bounce", "--table", str(bad), "--start", "0", "0",
                            "--dir", "1", "1", "--bounces", "1"])
        assert code == 1 and "ParseError" in err

    @pytest.mark.parametrize("where", ["start", "table", "max-len"])
    def test_float_overflow_exit_1(self, where, tmp_path):
        table = tmp_path / "huge.table"
        table.write_text("vertex 0 0\nvertex 1e400 0\nvertex 0 1\nlabels a b c\n")
        argv = {
            "start": self.BOUNCE[:4] + ["1e400", "0", "--dir", "1", "1", "--bounces", "1"],
            "table": ["bounce", "--table", str(table), "--start", "0", "0",
                      "--dir", "1", "1", "--bounces", "1"],
            "max-len": ["diagonals", "--table", SQUARE, "--vertex", "0", "--max-len", "1e400"],
        }[where]
        code, out, err = run(argv + ["--backend", "f64"])
        assert code == 1 and out == ""
        assert err.startswith("error: ParseError") and "Traceback" not in err

    @pytest.mark.parametrize("backend", ["exact", "f64"])
    def test_huge_exponent_exit_1_quickly(self, backend):
        # expanding 10**40000000 first would take minutes
        done = run_cli_process(["diagonals", "--table", SQUARE, "--vertex", "0",
                                "--max-len", "1e40000000", "--backend", backend], timeout=20)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: ParseError") and "Traceback" not in done.stderr

    @pytest.mark.parametrize("flag", ["--table", "--surface", "--language"])
    def test_not_utf8_exit_1(self, flag, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe vertex 0 0\n")
        ok = tmp_path / "ok.txt"
        ok.write_text("")
        argv = {
            "--table": ["bounce", "--table", str(bad), "--start", "0", "0",
                        "--dir", "1", "1", "--bounces", "1"],
            "--surface": ["cutting", "--surface", str(bad), "--start", "0", "0",
                          "--dir", "1", "1", "--crossings", "1"],
            "--language": ["flag-singular", "--language", str(bad),
                           "--diagonals", str(ok), "--suffix", "1"],
        }[flag]
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestEpsFlag:
    def test_eps_widens_the_vertex_guard(self):
        # a pass 1e-4 away from the corner is singular only at a loose eps
        argv_tail = ["--table", SQUARE, "--start", "0.5", "0.5",
                     "--dir", "0.5001", "0.5", "--bounces", "6", "--backend", "f64"]
        code, out, _ = run(["bounce", *argv_tail, "--eps", "1e-9"])
        assert code == 0 and "singular" not in out
        code, out, _ = run(["bounce", *argv_tail, "--eps", "1e-3"])
        assert code == 0 and "singular" in out


# sha256 of ``diagonals`` stdout on every vertex of the shipped tables, at
# the radii the benchmark draws up to, as the gate-narrowed search printed it
DIAGONAL_DIGESTS = {
    ("square", "9", 0): "ce96548708bbb76d4368b6200dd312418f7ced270794e3a9f439db556f066fa6",
    ("square", "9", 1): "dd7e9f4cf0ec0966af68fccf53b4095ba62981553d292ede7ae2514a3694902d",
    ("square", "9", 2): "f013778789658fb0f29a19609563a4e74fcbc07d63fe237222dbaeae0b631ddc",
    ("square", "9", 3): "70d59e5b12643212adac6901a1d6c66e4b0588478542dcee3d05e937a10561bf",
    ("rect21", "12", 0): "e542cd501f44344f2161887481fffed0d53fc56e538d2c282e2aca17e0afed14",
    ("rect21", "12", 1): "be0a3d7c4892e8c73fb98a83579de2e61fd466b9f578cb00411a1be96151cff0",
    ("rect21", "12", 2): "bd1f51c073ba5d990a09ae5be213b81af2b0d1a8a417b2e757b230af5c740b75",
    ("rect21", "12", 3): "df756ba1f26144a0d7620b3a6c2aadd6c602b0c1eeddb1cce699f0f75d93609a",
    ("acute", "6", 0): "f28450b9c229cd06f33f8f7a4f49bc04b5a0e51aff14a242e906c19ebf74d801",
    ("acute", "6", 1): "74db5609265eae5f588c745b127f649fc0d88e4ddc1c91d1b1093d080fd48e32",
    ("acute", "6", 2): "5ce5aa61d615966a2236897a37a47faf33d0b7dc60fadaf13ef63effe8b8aa52",
    ("quad", "13/2", 0): "ace6c1460ee760f3b6d537ec13d09ed88f41187556b3c009a3c068cedbf9d609",
    ("quad", "13/2", 1): "c7ce242d98173db985c012e4681c47dd24ac3e00ea5ced444830a1cbf718b2ac",
    ("quad", "13/2", 2): "e0a3fbfab93aad7387959a9b71215d447db5b73d3cefc0e97b18de25d37b2380",
    ("quad", "13/2", 3): "55253ac31c4f6cbacd0b7eaf9f750596ef1cfff37bf1884920a219508d84571b",
}


@pytest.mark.parametrize("name,radius,vertex", sorted(DIAGONAL_DIGESTS), ids=str)
def test_diagonals_stdout_digest(name, radius, vertex):
    code, out, err = run(["diagonals", "--table", str(TABLES / f"{name}.table"),
                          "--vertex", str(vertex), "--max-len", radius])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DIAGONAL_DIGESTS[name, radius, vertex]


# The same cases on the f64 backend, and every vertex of the L-shape (the
# conftest fixture) on the exact one, as the Fraction sweep printed them
F64_DIAGONAL_DIGESTS = {
    ("square", "9", 0): "ce96548708bbb76d4368b6200dd312418f7ced270794e3a9f439db556f066fa6",
    ("square", "9", 1): "dd7e9f4cf0ec0966af68fccf53b4095ba62981553d292ede7ae2514a3694902d",
    ("square", "9", 2): "f013778789658fb0f29a19609563a4e74fcbc07d63fe237222dbaeae0b631ddc",
    ("square", "9", 3): "70d59e5b12643212adac6901a1d6c66e4b0588478542dcee3d05e937a10561bf",
    ("rect21", "12", 0): "e542cd501f44344f2161887481fffed0d53fc56e538d2c282e2aca17e0afed14",
    ("rect21", "12", 1): "be0a3d7c4892e8c73fb98a83579de2e61fd466b9f578cb00411a1be96151cff0",
    ("rect21", "12", 2): "bd1f51c073ba5d990a09ae5be213b81af2b0d1a8a417b2e757b230af5c740b75",
    ("rect21", "12", 3): "df756ba1f26144a0d7620b3a6c2aadd6c602b0c1eeddb1cce699f0f75d93609a",
    ("acute", "6", 0): "ad737eec78137a7449712fc98e58bfbf8aa4033b412327f276b49d88f9c20fa6",
    ("acute", "6", 1): "6292f99c9a8ea3fa9bc91ad89a54364fcf27e3b81dedb0ebda6c54ab50814f51",
    ("acute", "6", 2): "450538bb52e51f0f728ebf2b4d0ad2497bf21d42e430e543e7cba7455f3a30d7",
    ("quad", "13/2", 0): "5ac05d4eb131f74a73fcf8129a6793f66838073ef8ba9f1b01a35d219c5338fb",
    ("quad", "13/2", 1): "c3632f4025e92763ec8a720f90dd95663e42e24dd7088875d3117a210a4c10bc",
    ("quad", "13/2", 2): "1fea285ead81a2279d03e55982c124611c37dde38836629b9e7838c43b661d86",
    ("quad", "13/2", 3): "ce4424447a6b2baa5c35e16d953f55f1291c7a89f47fcdb28986ae38dd88279a",
}
LSHAPE_DIAGONAL_DIGESTS = {
    ("3", 0): "5b51d79e22ec25c22d86358e1996390964082b06aa76f6372a0e9342a22754ad",
    ("3", 1): "82a8a37deedcd93d3bd7f31fb6c94fb497bed349c2b025e36db14fffd1753c95",
    ("3", 2): "06140c8023e394694f7554227403a93b93cd013e7aa2be9c81deba6f7993f76a",
    ("3", 3): "11d62837a614e29a9deb989c0f4f1c80255d29923f055ecb05b344d46abf0ce4",
    ("3", 4): "f9338f7ad9a655f0f56871510cfeacf5016fe8dbf7c088a998f1e9f5ba2649c8",
    ("3", 5): "82a8a37deedcd93d3bd7f31fb6c94fb497bed349c2b025e36db14fffd1753c95",
    ("5", 0): "adf582b6b99c95ef5549a47fad6fff0bd07f9111bb15f06843fd1495663bb391",
    ("5", 1): "ae3fd1014df90815bacf3b7dcd33c24de41e28a0cde7257249bdb2786705c999",
    ("5", 2): "93a440fe0f6d3144e6ac16a4dd602b3ba20ead50a7cbb9aff22a777b0f79e3ad",
    ("5", 3): "b088d0ff87181826a7b951be4db52da4438dc98d138163d5708797f33c2938b9",
    ("5", 4): "32e54fa4288d200854a553e8d14e2734736e65a7f3c2d179737106b9585cae30",
    ("5", 5): "575881e6048ee6fcad00866a549d061c9a75caa7e9d85fac664a27a130cbd63d",
    ("23/4", 0): "3a277b637f11311943be569f1ed3e75901c53416e6f313bca89032f99c718cc5",
    ("23/4", 1): "f03a9f1b9ae23d748294993bffb4dab660b4a8a03503c60e78d5ef19c8d836d0",
    ("23/4", 2): "c558dcc1bfdc4d93153f9ab714946a76b0ea95aa48a895d4b42bcee6d0688b15",
    ("23/4", 3): "75235c5b4ee47ac2fa5690c9f2921ccab133b50a613e3a4aa6c9daf64642d78a",
    ("23/4", 4): "69c58d846abfe949c280557f61d571790ca72ca70a18988f6b31ea0214c1e776",
    ("23/4", 5): "fd93af53d77cf20376fd68f88376ea94ecfd5be420588a1ba25206eae2db1984",
}


@pytest.mark.parametrize("name,radius,vertex", sorted(F64_DIAGONAL_DIGESTS), ids=str)
def test_f64_diagonals_stdout_digest(name, radius, vertex):
    code, out, err = run(["diagonals", "--backend", "f64",
                          "--table", str(TABLES / f"{name}.table"),
                          "--vertex", str(vertex), "--max-len", radius])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == F64_DIAGONAL_DIGESTS[name, radius, vertex]


@pytest.mark.parametrize("radius", ["3", "5", "23/4"])
def test_lshape_diagonals_stdout_digest(lshape, tmp_path, radius):
    path = tmp_path / "lshape.table"
    path.write_text(format_table(lshape), encoding="utf-8")
    for vertex in range(lshape.n):
        code, out, err = run(["diagonals", "--table", str(path), "--vertex", str(vertex),
                              "--max-len", radius])
        assert code == 0 and err == ""
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == LSHAPE_DIAGONAL_DIGESTS[radius, vertex], vertex


class TestDeterminism:
    COMMANDS = [
        ["bounce", "--table", SQUARE, "--start", "1/2", "1/2", "--dir", "2", "1",
         "--bounces", "12"],
        ["periodic", "--table", SQUARE, "--word", "3,1"],
        ["diagonals", "--table", SQUARE, "--vertex", "0", "--max-len", "4"],
        ["unfold", "--table", SQUARE, "--word", "2,3"],
        ["unfold", "--table", SQUARE, "--rational"],
        ["spectrum", "--table", SQUARE, "--k", "3", "--budget", "40", "--seed", "5"],
        ["compare", "--table1", SQUARE, "--table2", QUAD, "--k", "3",
         "--budget", "60", "--map", "1=1,2=2,3=3,4=4"],
        ["cutting", "--surface", OCTAGON, "--start", "5", "1", "--dir", "1", "3",
         "--crossings", "9"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_runs(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0

    def test_svg_byte_identical(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for target in (a, b):
            run(["unfold", "--table", SQUARE, "--word", "3,1,3,1",
                 "--svg", str(target)])
        assert a.read_bytes() == b.read_bytes()


class TestSvgScenes:
    def test_trajectory_scene(self, square):
        from fractions import Fraction as F

        state = RayState(point(F(1, 2), F(1, 2), EXACT), direction(2, 1, EXACT), square)
        traj = trace(state, 12)
        doc = svg.render_svg(svg.TableScene(square, traj))
        assert doc.count("<circle") == 12
        assert doc.count("<polygon") == 1

    def test_corridor_scene_with_development(self, square):
        from fractions import Fraction as F
        from polybounce.unfolding import develop_trajectory

        state = RayState(point(F(1, 2), F(1, 2), EXACT), direction(0, 1, EXACT), square)
        corridor, dev = develop_trajectory(trace(state, 4))
        doc = svg.render_svg(svg.CorridorScene(corridor, dev))
        assert doc.count("<polygon") == 5
        assert doc.count("<polyline") == 1

    def test_empty_scene_rejected(self):
        from polybounce.errors import EmptyScene

        with pytest.raises(EmptyScene):
            svg.render_svg(object())

    def test_glued_scene(self):
        gp = load_glued_polygon(OCTAGON, EXACT)
        from polybounce.surface import cutting_sequence

        word = cutting_sequence(gp, point(5, 1, EXACT), direction(1, 3, EXACT), 8)
        doc = svg.render_svg(svg.GluedScene(gp, word))
        assert doc.count("<line") == len(word.chords)
