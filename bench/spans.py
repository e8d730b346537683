"""Spans around the public functions of each spothedge module.

A traced pass replaces module attributes with timing wrappers and puts the
originals back afterwards; no program file changes.  The callers bind names
at import time (``from .simplex import solve``), so each wrapper is set on
the module that makes the call: ``formulations.solve`` and ``metrics.solve``
are two patches of the same function.

Each span records its name, start, end, parent span and the operation it
belongs to (one operation per CLI invocation).  A layer's self time is its
duration minus the time covered by its child spans, so the self times of
one invocation add up to the duration of its ``cli.main`` span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

from spothedge.linprog import OPTIMAL


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span log of one traced iteration."""

    def __init__(self, capture_lps: bool = False):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0
        self.kinds = weakref.WeakKeyDictionary()  # LinearProgram -> model kind
        self.capture_lps = capture_lps
        self.lps: list[tuple[int, object, object]] = []  # (op, lp, solution)

    def begin(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self.stack)


def lp_shape(lp) -> dict:
    return {"cols": lp.num_variables, "rows": lp.num_rows,
            "nnz": sum(len(row.coeffs) for row in lp.rows)}


def _on_build(kind):
    def hook(tracer, span, args, kwargs, result):
        lp = result[0]
        tracer.kinds[lp] = kind
        span.attrs.update(lp_shape(lp), kind=kind)
    return hook


def _on_simplex(tracer, span, args, kwargs, result):
    lp = args[0]
    kind = "risk_free" if tracer.inside("metrics.risk_free") else tracer.kinds.get(lp, "other")
    span.attrs.update(lp_shape(lp), kind=kind, iterations=result.iterations,
                      status=result.status)
    if tracer.capture_lps:
        tracer.lps.append((span.op, lp, result))


def _on_ingest(tracer, span, args, kwargs, result):
    span.attrs["rows"] = int(result.nodal.size + result.system.size)


def _on_load_scenarios(tracer, span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _on_save_scenarios(tracer, span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[1])


def _on_sweep(tracer, span, args, kwargs, result):
    span.attrs["points"] = len({(r.source, r.alpha, r.epsilon) for r in result})
    span.attrs["failures"] = len(kwargs.get("failures") or ())


# (module or class, attribute, span name, hook run after a normal return)
SPAN_TABLE = (
    ("spothedge.cli", "main", "cli.main", None),
    ("spothedge.formulations", "solve", "simplex.solve", _on_simplex),
    ("spothedge.metrics", "solve", "simplex.solve", _on_simplex),
    ("spothedge.linprog:LinearProgram", "dense", "linprog.dense", None),
    ("spothedge.formulations", "build_risk_neutral", "formulations.build",
     _on_build("risk_neutral")),
    ("spothedge.formulations", "build_cvar", "formulations.build", _on_build("cvar")),
    ("spothedge.formulations", "build_dro", "formulations.build", _on_build("dro")),
    ("spothedge.metrics", "build_risk_neutral", "formulations.build",
     _on_build("risk_neutral")),
    ("spothedge.formulations", "extract_report", "formulations.extract", None),
    ("spothedge.metrics", "extract_report", "formulations.extract", None),
    ("spothedge.metrics", "risk_free_profit", "metrics.risk_free", None),
    ("spothedge.metrics", "sweep", "metrics.sweep", _on_sweep),
    ("spothedge.metrics", "write_metrics_csv", "metrics.csv", None),
    ("spothedge.metrics", "write_tradeoff_csv", "metrics.csv", None),
    ("spothedge.cli", "ingest_lmp_csv", "pipeline.ingest", _on_ingest),
    ("spothedge.cli", "kmeans_reduce", "pipeline.kmeans", None),
    ("spothedge.cli", "knee_point", "pipeline.knee", None),
    ("spothedge.cli", "estimate_q", "pipeline.estimate_q", None),
    ("spothedge.cli", "scenarios_from_representatives", "pipeline.expand", None),
    ("spothedge.cli", "instance_from_dict", "domain.load", None),
    ("spothedge.cli", "load_scenarios", "domain.load", _on_load_scenarios),
    ("spothedge.cli", "validate_instance", "domain.validate", None),
    ("spothedge.cli", "validate_scenarios", "domain.validate", None),
    ("spothedge.formulations", "validate_instance", "domain.validate", None),
    ("spothedge.formulations", "validate_scenarios", "domain.validate", None),
    ("spothedge.cli", "save_scenarios", "domain.save", _on_save_scenarios),
)

# spans that must record calls on a workload, or the span table is stale
MUST_FIRE = {
    "solve": ("cli.main", "simplex.solve", "linprog.dense", "formulations.build",
              "formulations.extract", "metrics.risk_free", "domain.load",
              "domain.validate"),
    "sweep": ("cli.main", "metrics.sweep", "metrics.risk_free", "simplex.solve",
              "linprog.dense", "formulations.build", "formulations.extract",
              "metrics.csv", "domain.load", "domain.validate"),
    "prepare_large": ("cli.main", "pipeline.ingest", "pipeline.kmeans",
                      "pipeline.knee", "pipeline.estimate_q", "pipeline.expand",
                      "domain.load", "domain.validate", "domain.save"),
}


class StaleSpanTable(LookupError):
    """A wrapped attribute is gone, or a span that must fire recorded nothing."""


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.end(span)
        if hook is not None:
            hook(tracer, span, args, kwargs, result)
        return result
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every attribute of SPAN_TABLE for the duration of the block."""
    targets = []
    for path, attr, name, hook in SPAN_TABLE:
        owner = _owner(path)
        if not hasattr(owner, attr):
            raise StaleSpanTable(f"{path.replace(':', '.')}.{attr} no longer exists; "
                                 "the benchmark's span table needs updating")
        targets.append((owner, attr, name, hook))
    saved = []
    try:
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, name, original, hook))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def check_fired(workload: str, tracers: list[Tracer]) -> None:
    fired = {s.name for t in tracers for s in t.spans}
    silent = [name for name in MUST_FIRE[workload] if name not in fired]
    if silent:
        raise StaleSpanTable(f"spans {silent} recorded no calls on workload "
                             f"{workload!r}, where they must fire")


def self_times(spans: list[Span]) -> dict[int, float]:
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.sid: s.seconds - covered[s.sid] for s in spans}


KINDS = ("risk_neutral", "cvar", "dro", "risk_free")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced iteration."""
    own = self_times(tracer.spans)
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(own[s.sid] for s in by_name[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    simplex = by_name["simplex.solve"]
    builds = by_name["formulations.build"]
    iterations = total("simplex.solve", "iterations")
    out = {
        "simplex.solve.s": self_s("simplex.solve"),
        "simplex.solve.calls": len(simplex),
        "simplex.iterations": iterations,
        "simplex.us_per_iteration": (1e6 * self_s("simplex.solve") / iterations
                                     if iterations else 0.0),
        "simplex.failures": sum(1 for s in simplex
                                if "error" in s.attrs or s.attrs.get("status") != OPTIMAL),
        "linprog.dense.s": self_s("linprog.dense"),
        "formulations.build.s": self_s("formulations.build"),
        "formulations.build.calls": len(builds),
        "formulations.extract.s": self_s("formulations.extract"),
        "formulations.lp.cols": max((s.attrs.get("cols", 0) for s in builds), default=0),
        "formulations.lp.rows": max((s.attrs.get("rows", 0) for s in builds), default=0),
        "formulations.lp.nnz": max((s.attrs.get("nnz", 0) for s in builds), default=0),
        "metrics.risk_free.s": self_s("metrics.risk_free"),
        "metrics.risk_free.total_s": sum(s.seconds for s in by_name["metrics.risk_free"]),
        "metrics.risk_free.calls": len(by_name["metrics.risk_free"]),
        "metrics.sweep.s": self_s("metrics.sweep"),
        "metrics.sweep.total_s": sum(s.seconds for s in by_name["metrics.sweep"]),
        "metrics.sweep.points": total("metrics.sweep", "points"),
        "metrics.sweep.failures": total("metrics.sweep", "failures"),
        "metrics.csv.s": self_s("metrics.csv"),
        "pipeline.ingest.s": self_s("pipeline.ingest"),
        "pipeline.ingest.rows": total("pipeline.ingest", "rows"),
        "pipeline.kmeans.s": self_s("pipeline.kmeans"),
        "pipeline.kmeans.calls": len(by_name["pipeline.kmeans"]),
        "pipeline.knee.s": self_s("pipeline.knee"),
        "pipeline.estimate_q.s": self_s("pipeline.estimate_q"),
        "pipeline.expand.s": self_s("pipeline.expand"),
        "domain.load.s": self_s("domain.load"),
        "domain.validate.s": self_s("domain.validate"),
        "domain.save.s": self_s("domain.save"),
        "domain.bytes": total("domain.load", "bytes") + total("domain.save", "bytes"),
        "cli.main.s": sum(s.seconds for s in by_name["cli.main"]),
        "cli.self.s": self_s("cli.main"),
        "trace.self_sum.s": sum(own.values()),
    }
    for kind in KINDS:
        out[f"simplex.solve.{kind}.s"] = sum(own[s.sid] for s in simplex
                                             if s.attrs.get("kind") == kind)
    return out


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_iteration)
            for key in per_iteration[0]}


def span_records(tracer: Tracer, labels: list[str]) -> list[dict]:
    """JSON-ready spans, times relative to the first span of the iteration."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    return [{"id": s.sid, "name": s.name, "parent": s.parent, "op": labels[s.op],
             "start": s.start - t0, "end": s.end - t0, **s.attrs}
            for s in tracer.spans]
