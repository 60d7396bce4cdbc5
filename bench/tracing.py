"""Per-layer spans for the traced run, recorded from the benchmark's side.

``Tracer.install`` wraps the library's public functions by rebinding module
attributes: the defining module's attribute and every ``from .x import f``
binding of the same function object in the other polybounce modules
(``analysis.trace``, ``cli.load_table``, ``surface.vertex_guard``, ...).
``Tracer.uninstall`` restores them.

Each call records a span (name, start, end, parent span, op id, backend) in
flat arrays that stay in memory until the run ends.  Counts are taken at the
same boundaries from the wrapped call's arguments and result.  A span's self
time is its duration minus the durations of its direct children; the spans
of one thread nest, so the children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

from polybounce import analysis, cli, flow, geom, surface, table, unfolding

NO_BACKEND, EXACT_TAG, F64_TAG = 0, 1, 2
OP_SPAN = "op"

# span name -> (module, attribute); the layer is the part before the dot
TARGETS = {
    "geom.first_hit": (geom, "first_hit"),
    "geom.compose": (geom, "compose"),
    "geom.reflection_across": (geom, "reflection_across"),
    "table.locate_point": (table, "locate_point"),
    "table.load_table": (table, "load_table"),
    "table.validate_table": (table, "validate_table"),
    "table.classify_table": (table, "classify_table"),
    "flow.trace": (flow, "trace"),
    "flow.vertex_guard": (flow, "vertex_guard"),
    "analysis.sample": (analysis, "sample_bounce_language"),
    "analysis.compare": (analysis, "compare_spectra"),
    "analysis.periodic": (analysis, "periodic_orbit_for_word"),
    "analysis.diagonals": (analysis, "enumerate_generalized_diagonals"),
    "unfolding.unfold_word": (unfolding, "unfold_word"),
    "unfolding.build_rational_unfolding": (unfolding, "build_rational_unfolding"),
    "surface.load_glued_polygon": (surface, "load_glued_polygon"),
    "surface.cutting_sequence": (surface, "cutting_sequence"),
    "cli.main": (cli, "main"),
}

LAYERS = ("geom", "table", "flow", "analysis", "unfolding", "surface", "cli")


def _tag_of_scalar(x) -> int:
    return F64_TAG if isinstance(x, float) else EXACT_TAG


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = list(TARGETS) + [OP_SPAN]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_tag = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = defaultdict(int)
        self.bits_max = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op_id)
        self.span_tag.append(NO_BACKEND)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, end: float) -> None:
        self.stack.pop()
        self.span_start[sid] = start
        self.span_end[sid] = end

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span carrying its id."""
        self.op_id = op_id
        sid = self._open(self.name_id[OP_SPAN])
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, t0, time.perf_counter())

    def _wrap(self, name: str, fn):
        name_id = self.name_id[name]
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        counts = self.counts
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = self._open(name_id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, t0, perf())
            if count is not None:
                count(sid, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts at the span boundaries -------------------------------------

    def _inside(self, name: str) -> bool:
        target = self.name_id[name]
        return any(self.span_name[s] == target for s in self.stack[1:])

    def _count_geom_first_hit(self, sid, args, result):
        self.span_tag[sid] = _tag_of_scalar(args[0].x)

    def _count_geom_compose(self, sid, args, result):
        if self._inside("analysis.diagonals"):
            self.counts["analysis.diagonals.nodes"] += 1

    def _count_flow_trace(self, sid, args, result):
        tag = _tag_of_scalar(args[0].position.x)
        self.span_tag[sid] = tag
        self.counts[f"flow.bounces.{tag}"] += len(result.hits)
        self.counts["flow.singular"] += result.is_singular
        if self._inside("analysis.periodic"):
            self.counts["analysis.periodic.traces"] += 1
        if tag == EXACT_TAG:
            # the span is closed: this bookkeeping is not flow's time
            for h in result.hits:
                self.bits_max = max(
                    self.bits_max,
                    _bits(h.point.x), _bits(h.point.y),
                    _bits(h.direction.dx), _bits(h.direction.dy),
                )

    def _count_analysis_sample(self, sid, args, result):
        self.counts["analysis.sample.trajectories"] += result.provenance["trajectories"]
        self.counts["analysis.sample.attempted"] += result.provenance["attempted"]

    def _count_analysis_periodic(self, sid, args, result):
        self.counts["analysis.periodic.found"] += result.exists

    def _count_analysis_diagonals(self, sid, args, result):
        self.counts["analysis.diagonals.records"] += len(result)

    def _count_surface_cutting_sequence(self, sid, args, result):
        tag = _tag_of_scalar(args[1].x)
        self.span_tag[sid] = tag
        self.counts[f"surface.crossings.{tag}"] += len(result.symbols)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "polybounce" or n.startswith("polybounce."))
        ]
        for name, (module, attr) in TARGETS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            p = self.span_parent[sid]
            if p >= 0:
                child[p] += self.span_end[sid] - self.span_start[sid]
        return array(
            "d", (self.span_end[s] - self.span_start[s] - child[s] for s in range(n))
        )

    def write(self, path: str) -> None:
        """All spans, one per line: id, name, parent, op, backend, start, end."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        tags = {NO_BACKEND: "-", EXACT_TAG: "exact", F64_TAG: "f64"}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\top\tbackend\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.names[self.span_name[sid]]}\t{self.span_parent[sid]}\t"
                    f"{self.span_op[sid]}\t{tags[self.span_tag[sid]]}\t"
                    f"{self.span_start[sid] - t0:.9f}\t{self.span_end[sid] - t0:.9f}\n"
                )

    def metrics(self):
        """Per-layer metrics, keyed as in BENCHMARK.json."""
        selfs = self.self_times()
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls_by_tag = defaultdict(int)
        for sid in range(len(self.span_name)):
            name = self.names[self.span_name[sid]]
            tag = self.span_tag[sid]
            dur = self.span_end[sid] - self.span_start[sid]
            total[name] += dur
            total[(name, tag)] += dur
            self_s[name] += selfs[sid]
            calls_by_tag[(name, tag)] += 1
        c = self.counts

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def us_per(name, tag, den):
            return per(total[(name, tag)], den, 1e6)

        bounces = c[f"flow.bounces.{EXACT_TAG}"] + c[f"flow.bounces.{F64_TAG}"]
        m = {
            "geom.first_hit.calls": c["geom.first_hit"],
            "geom.first_hit.self_s": self_s["geom.first_hit"],
            "geom.first_hit.us_per_call.f64": us_per(
                "geom.first_hit", F64_TAG, calls_by_tag[("geom.first_hit", F64_TAG)]),
            "geom.first_hit.us_per_call.exact": us_per(
                "geom.first_hit", EXACT_TAG, calls_by_tag[("geom.first_hit", EXACT_TAG)]),
            "geom.compose.calls": c["geom.compose"],
            "geom.reflection_across.calls": c["geom.reflection_across"],
            "table.locate_point.calls": c["table.locate_point"],
            "table.locate_point.self_s": self_s["table.locate_point"],
            "table.load_table.self_s": self_s["table.load_table"],
            "table.validate_table.self_s": self_s["table.validate_table"],
            "table.classify_table.calls": c["table.classify_table"],
            "table.classify_table.self_s": self_s["table.classify_table"],
            "flow.trace.calls": c["flow.trace"],
            "flow.trace.self_s": self_s["flow.trace"],
            "flow.bounces": bounces,
            "flow.us_per_bounce.f64": us_per(
                "flow.trace", F64_TAG, c[f"flow.bounces.{F64_TAG}"]),
            "flow.us_per_bounce.exact": us_per(
                "flow.trace", EXACT_TAG, c[f"flow.bounces.{EXACT_TAG}"]),
            "flow.singular_ratio": per(c["flow.singular"], c["flow.trace"]),
            "flow.exact_bits_max": self.bits_max,
            "analysis.sample.self_s": self_s["analysis.sample"],
            "analysis.sample.accept_ratio": per(
                c["analysis.sample.trajectories"], c["analysis.sample.attempted"]),
            "analysis.compare.self_s": self_s["analysis.compare"],
            "analysis.periodic.calls": c["analysis.periodic"],
            "analysis.periodic.self_s": self_s["analysis.periodic"],
            "analysis.periodic.found_ratio": per(
                c["analysis.periodic.found"], c["analysis.periodic"]),
            "analysis.periodic.traces_per_call": per(
                c["analysis.periodic.traces"], c["analysis.periodic"]),
            "analysis.diagonals.calls": c["analysis.diagonals"],
            "analysis.diagonals.self_s": self_s["analysis.diagonals"],
            "analysis.diagonals.nodes": c["analysis.diagonals.nodes"],
            "analysis.diagonals.records_per_node": per(
                c["analysis.diagonals.records"], c["analysis.diagonals.nodes"]),
            "unfolding.unfold_word.calls": c["unfolding.unfold_word"],
            "unfolding.unfold_word.self_s": self_s["unfolding.unfold_word"],
            "unfolding.build_rational_unfolding.self_s": self_s[
                "unfolding.build_rational_unfolding"],
            "surface.load_glued_polygon.self_s": self_s["surface.load_glued_polygon"],
            "surface.cutting_sequence.self_s": self_s["surface.cutting_sequence"],
            "surface.crossings": c[f"surface.crossings.{EXACT_TAG}"]
            + c[f"surface.crossings.{F64_TAG}"],
            "surface.us_per_crossing.exact": us_per(
                "surface.cutting_sequence", EXACT_TAG, c[f"surface.crossings.{EXACT_TAG}"]),
            "surface.us_per_crossing.f64": us_per(
                "surface.cutting_sequence", F64_TAG, c[f"surface.crossings.{F64_TAG}"]),
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
        }
        # self-time share of each layer in the traced ops; "bench" is the
        # harness's own share (the op spans' self time)
        op_total = total[OP_SPAN]
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            m[f"share.{layer}"] = per(layer_self, op_total)
        m["share.bench"] = per(self_s[OP_SPAN], op_total)
        m["trace.spans"] = len(self.span_name)
        return m
