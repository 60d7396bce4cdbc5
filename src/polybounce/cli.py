"""Command-line front end.

Every command is a pure function of its input files, flags, and seed:
repeated runs produce byte-identical stdout and output files.  Exit codes:
0 success, 1 domain error (named diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analysis, geom, svg, unfolding
from .errors import BilliardError, ParseError
from .flow import RayState, bounce_word, trace, trace_backward
from .geom import Point2, format_scalar
from .surface import cutting_sequence, load_glued_polygon
from .table import load_table


def parse_word(text: str):
    text = text.strip()
    if text == "()" or text == "":
        return ()
    return tuple(part.strip() for part in text.split(","))


def format_word(symbols) -> str:
    symbols = tuple(symbols)
    return ",".join(symbols) if symbols else "()"


def _checked(convert, ok, what: str):
    """argparse type: ``convert`` the text, then require ``ok`` of the value."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return parse


_COUNT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_POSITIVE_FLOAT = _checked(float, lambda v: v > 0 and math.isfinite(v), "a finite number > 0")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=[geom.EXACT, geom.F64], default=geom.EXACT
    )
    parser.add_argument("--eps", type=_POSITIVE_FLOAT, default=1e-9)
    parser.add_argument("--seed", type=int, default=0)


def _start_and_dir(args):
    """``--start`` and ``--dir`` as (point, direction) on the chosen backend."""
    b = args.backend
    pos = Point2(geom.parse_scalar(args.start[0], b), geom.parse_scalar(args.start[1], b))
    d = geom.direction(
        geom.parse_scalar(args.dir[0], b), geom.parse_scalar(args.dir[1], b), b
    )
    return pos, d


def cmd_bounce(args, out, err) -> int:
    table = load_table(args.table, args.backend)
    state = RayState(*_start_and_dir(args), table)
    traj = trace(state, args.bounces)
    word = bounce_word(traj)
    print(format_word(word.symbols), file=out)
    if word.singular:
        print(f"# singular vertex={traj.terminated_by.vertex_index}", file=out)
    if args.backward:
        back = trace_backward(state, args.backward)
        bword = bounce_word(back)
        print(f"backward: {format_word(bword.symbols)}", file=out)
        if bword.singular:
            print(f"# singular vertex={back.terminated_by.vertex_index}", file=out)
    return 0


def cmd_periodic(args, out, err) -> int:
    table = load_table(args.table, args.backend)
    word = parse_word(args.word)
    res = analysis.periodic_orbit_for_word(table, word)
    if res.exists:
        print(
            f"{format_word(word)}\ttrue\t{format_scalar(res.translation.dx)}\t"
            f"{format_scalar(res.translation.dy)}\t{format_scalar(res.family_width)}",
            file=out,
        )
    else:
        print(f"{format_word(word)}\tfalse\t-\t-\t-\t{res.reason}", file=out)
    return 0


def cmd_diagonals(args, out, err) -> int:
    table = load_table(args.table, args.backend)
    max_len = geom.parse_scalar(args.max_len, args.backend)
    records = analysis.enumerate_generalized_diagonals(table, args.vertex, max_len)
    for r in records:
        endpoint = f"{format_scalar(r.target_image.x)},{format_scalar(r.target_image.y)}"
        print(f"{format_word(r.word)}\t{format_scalar(r.length_sq)}\t{endpoint}", file=out)
    return 0


def cmd_unfold(args, out, err) -> int:
    if args.rational and args.svg:
        print("usage: --svg renders corridors; it requires --word", file=err)
        return 2
    table = load_table(args.table, args.backend)
    if args.rational:
        surface = unfolding.build_rational_unfolding(table)
        out.write(unfolding.format_surface(surface))
        return 0
    word = parse_word(args.word)
    corridor = unfolding.unfold_word(table, word)
    comp = corridor.composite
    if comp.is_translation():
        kind = "translation"
    elif geom.scalars_equal(comp.det(), 1):
        kind = "rotation"
    else:
        kind = "reflection"
    print(f"corridor word={format_word(word)} copies={len(corridor.copies)}", file=out)
    print(
        f"composite {kind} det={format_scalar(comp.det())} "
        f"linear={format_scalar(comp.m00)},{format_scalar(comp.m01)},"
        f"{format_scalar(comp.m10)},{format_scalar(comp.m11)} "
        f"offset={format_scalar(comp.tx)},{format_scalar(comp.ty)}",
        file=out,
    )
    for i, gate in enumerate(corridor.gates, 1):
        print(
            f"gate {i} {corridor.word[i - 1]} "
            f"{format_scalar(gate.a.x)},{format_scalar(gate.a.y)} "
            f"{format_scalar(gate.b.x)},{format_scalar(gate.b.y)}",
            file=out,
        )
    if args.svg:
        doc = svg.render_svg(svg.CorridorScene(corridor))
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    return 0


def cmd_spectrum(args, out, err) -> int:
    table = load_table(args.table, args.backend)
    lang = analysis.sample_bounce_language(table, args.k, args.budget, args.seed)
    prov = lang.provenance
    print(
        f"# k={args.k} budget={args.budget} seed={args.seed} "
        f"trajectories={prov['trajectories']} singular_skipped={prov['singular_skipped']}",
        file=out,
    )
    for word in sorted(lang.words):
        print(format_word(word), file=out)
    return 0


def cmd_compare(args, out, err) -> int:
    t1 = load_table(args.table1, args.backend)
    t2 = load_table(args.table2, args.backend)
    mapping = {}
    for piece in args.map.split(","):
        if "=" not in piece:
            raise ParseError(f"bad map entry {piece!r}")
        a, b = piece.split("=", 1)
        mapping[a.strip()] = b.strip()
    l1 = analysis.sample_bounce_language(t1, args.k, args.budget, args.seed)
    l2 = analysis.sample_bounce_language(t2, args.k, args.budget, args.seed)
    res = analysis.compare_spectra(l1, l2, mapping)
    if res.kind == analysis.INDISTINGUISHABLE:
        print(f"IndistinguishableAtK k={res.k}", file=out)
    else:
        print(
            f"Separated k={res.k} witness={format_word(res.witness)} side={res.side}",
            file=out,
        )
    return 0


def cmd_cutting(args, out, err) -> int:
    gp = load_glued_polygon(args.surface, args.backend)
    word = cutting_sequence(gp, *_start_and_dir(args), args.crossings)
    print(format_word(word.symbols), file=out)
    if word.singular:
        print("# singular", file=out)
    if args.svg:
        doc = svg.render_svg(svg.GluedScene(gp, word))
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    return 0


def cmd_flag_singular(args, out, err) -> int:
    def read_words(path):
        words = []
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                words.append(parse_word(line.split("\t")[0]))
        return words

    language = read_words(args.language)
    diagonals = read_words(args.diagonals)
    flagged = analysis.flag_singular_words(language, diagonals, args.suffix)
    for word in sorted(flagged):
        print(format_word(word), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybounce",
        description="symbolic dynamics of billiards in Euclidean polygons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounce", help="trace a trajectory and print its bounce word")
    p.add_argument("--table", required=True)
    p.add_argument("--start", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--dir", nargs=2, required=True, metavar=("DX", "DY"))
    p.add_argument("--bounces", type=_COUNT, required=True)
    p.add_argument("--backward", type=_COUNT, default=0, metavar="M")
    _add_common(p)
    p.set_defaults(func=cmd_bounce)

    p = sub.add_parser("periodic", help="decide periodic realization of a word")
    p.add_argument("--table", required=True)
    p.add_argument("--word", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("diagonals", help="enumerate generalized diagonals")
    p.add_argument("--table", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--max-len", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_diagonals)

    p = sub.add_parser("unfold", help="corridor of a word, or rational unfolding")
    p.add_argument("--table", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--rational", action="store_true")
    p.add_argument("--svg")
    _add_common(p)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("spectrum", help="sample the finite-window bounce language")
    p.add_argument("--table", required=True)
    p.add_argument("--k", type=_POSITIVE_INT, required=True)
    p.add_argument("--budget", type=_POSITIVE_INT, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compare", help="compare two sampled bounce languages")
    p.add_argument("--table1", required=True)
    p.add_argument("--table2", required=True)
    p.add_argument("--k", type=_POSITIVE_INT, required=True)
    p.add_argument("--budget", type=_POSITIVE_INT, required=True)
    p.add_argument("--map", required=True, help="label bijection a=b,c=d,...")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cutting", help="cutting sequence on a glued polygon")
    p.add_argument("--surface", required=True)
    p.add_argument("--start", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--dir", nargs=2, required=True, metavar=("DX", "DY"))
    p.add_argument("--crossings", type=_COUNT, required=True)
    p.add_argument("--svg")
    _add_common(p)
    p.set_defaults(func=cmd_cutting)

    p = sub.add_parser("flag-singular", help="flag words matching diagonal tails")
    p.add_argument("--language", required=True)
    p.add_argument("--diagonals", required=True)
    p.add_argument("--suffix", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_flag_singular)
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    geom.set_float_tolerance(args.eps)
    try:
        return args.func(args, out, err)
    except BilliardError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
