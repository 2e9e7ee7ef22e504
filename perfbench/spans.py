"""Span recording around the library's public functions.

A :class:`Tracer` swaps each traced function for a wrapper at every module
attribute a caller looks it up through (``from .patterns import covered_at``
binds the function into the importing module too, so each such binding is
replaced), and ``TriGraph`` is traced through ``TriGraph.__init__``.  Spans
are kept in memory as ``(name, start, end, parent, note)`` tuples until the
run ends; the library itself is never edited.

Per-layer metrics are derived from the spans: a span's self time is its
duration minus the durations of its direct children, so the self times of
all spans add up to the duration of the top-level spans.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType
from typing import Callable, Optional

# (layer module, attribute, note) -- note(result) keeps the one fact about the
# result that a per-layer metric needs, so results are not held in memory.
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("oracle", "exact_c2", lambda r: (r.nodes_explored, r.exhaustive)),
    ("oracle", "certify_upper_behavior", lambda r: r.samples),
    ("patterns", "covered_at", lambda r: r is not None),
    ("patterns", "is_covered", None),
    ("patterns", "covering_report", None),
    ("patterns", "covering_obstruction", None),
    ("patterns", "covered_by_count", bool),
    ("hypergraphs", "TriGraph", None),
    ("hypergraphs", "pair_degree_table", None),
    ("hypergraphs", "min_codegree", None),
    ("hypergraphs", "link_graph", None),
    ("hypergraphs", "is_triangle_free", None),
    ("constructions", "construct_h", None),
    ("constructions", "construct_h4", None),
    ("constructions", "construct_t", None),
    ("constructions", "check_construction", None),
    ("blowup", "blowup", None),
    ("blowup", "add_edge_list", None),
    ("koenig", "complete_bipartite_matchings", None),
    ("fileio", "write_edge_list", len),
    ("fileio", "parse_edge_list", None),
)

# Functions with traced children report self time; the others report their
# total time as ``.s`` (for ``parse_edge_list`` that includes its TriGraph).
_SELF_TIMED = {
    "oracle.exact_c2", "oracle.certify_upper_behavior", "patterns.covering_report",
    "patterns.covering_obstruction", "hypergraphs.min_codegree",
    "constructions.construct_h", "constructions.construct_h4",
    "constructions.construct_t", "constructions.check_construction",
}

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)


def _layer_metric_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        if name in _SELF_TIMED:
            out.append((f"{name}.self_s", "s", "lower"))
        elif name != "patterns.covered_at":
            out.append((f"{name}.s", "s", "lower"))
        if name == "oracle.exact_c2":
            out += [(f"{name}.nodes", "count", "lower"), (f"{name}.nodes_per_s", "1/s", "higher"),
                    (f"{name}.exhaustive", "count", "higher")]
        elif name == "oracle.certify_upper_behavior":
            out.append((f"{name}.samples", "count", "higher"))
        elif name == "patterns.covered_at":
            out += [(f"{name}.refuted", "count", "lower"), (f"{name}.refute_s", "s", "lower"),
                    (f"{name}.witness_s", "s", "lower")]
        elif name == "patterns.covered_by_count":
            out.append((f"{name}.hit_ratio", "ratio", "higher"))
        elif name == "fileio.write_edge_list":
            out.append((f"{name}.bytes", "B", "lower"))
    return out


LAYER_METRICS = _layer_metric_names()


class Tracer:
    """Installs span-recording wrappers on the package's modules."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = note(result) if note is not None and result is not None else None
                spans[idx] = (name, start, end, parent, info)

        return wrapper

    def install(self) -> None:
        package_modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "tricover" or key.startswith("tricover."))
        ]
        for mod_name, attr, note in TARGETS:
            name = f"{mod_name}.{attr}"
            original = getattr(self.modules[mod_name], attr)
            if isinstance(original, type):
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init, None)
                continue
            wrapper = self._wrap(name, original, note)
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def layer_metrics(spans: list[tuple], passes: int, traced_wall: float) -> tuple[dict, dict]:
    """Per-pass per-layer metrics and the self-time accounting behind them.

    Returns ``(metrics, accounting)``; ``accounting`` carries the self time
    of every span name, the top-level total and the unattributed remainder,
    which add up to ``traced_wall`` by construction of self time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    self_time = dict.fromkeys(SPAN_NAMES, 0.0)
    top_level = 0.0
    nodes = exhaustive = samples = refuted = hits = nbytes = 0
    refute_s = witness_s = 0.0
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child_time[i]
        if parent < 0:
            top_level += dur
        if name == "oracle.exact_c2" and info is not None:
            nodes += info[0]
            exhaustive += int(info[1])
        elif name == "oracle.certify_upper_behavior" and info is not None:
            samples += info
        elif name == "patterns.covered_at":
            if info:
                witness_s += dur
            else:
                refuted += 1
                refute_s += dur
        elif name == "patterns.covered_by_count":
            hits += int(bool(info))
        elif name == "fileio.write_edge_list" and info is not None:
            nbytes += info

    p = max(passes, 1)
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls[name] / p
        values[f"{name}.s"] = total[name] / p
        values[f"{name}.self_s"] = self_time[name] / p
    oracle_self = self_time["oracle.exact_c2"]
    values.update({
        "oracle.exact_c2.nodes": nodes / p,
        "oracle.exact_c2.nodes_per_s": nodes / oracle_self if oracle_self > 0 else 0.0,
        "oracle.exact_c2.exhaustive": exhaustive / p,
        "oracle.certify_upper_behavior.samples": samples / p,
        "patterns.covered_at.refuted": refuted / p,
        "patterns.covered_at.refute_s": refute_s / p,
        "patterns.covered_at.witness_s": witness_s / p,
        "patterns.covered_by_count.hit_ratio": (
            hits / calls["patterns.covered_by_count"] if calls["patterns.covered_by_count"] else 0.0
        ),
        "fileio.write_edge_list.bytes": nbytes / p,
    })
    metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
    accounting = {
        "traced_wall_s": traced_wall,
        "top_level_s": top_level,
        "unattributed_s": traced_wall - top_level,
        "self_s_by_span": self_time,
        "self_s_sum": sum(self_time.values()),
    }
    return metrics, accounting
