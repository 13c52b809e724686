"""Spans around gatecap's public layer functions, recorded from outside.

``Tracer.install`` replaces each layer function at every name it is bound
to (``gatecap.cli.cartan_decompose`` as well as
``gatecap.canonical.cartan_decompose`` and ``gatecap.cartan_decompose``)
with a wrapper that records a span: name, start, end and the index of the
enclosing span.  ``uninstall`` puts the originals back, so untraced runs pay
nothing.  scipy's ``minimize`` is counted where gatecap.oracle binds it, as a
refinement record attached to the enclosing search span, not as a span, so
the searches keep their refinement time as self time.

This module imports nothing from gatecap at import time; the traced child
process of the cli-analyze workload imports it before gatecap.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs named by the per-layer metrics.
LAYERS = (
    ("linalg", "check_unitary"),
    ("linalg", "eig_unitary"),
    ("canonical", "cartan_decompose"),
    ("entanglement", "capacities_closed_form"),
    ("distinguishability", "d_min_canonical"),
    ("distinguishability", "d_min_geometric"),
    ("distinguishability", "verify_theorem"),
    ("distinguishability", "verify_theorem_quartic"),
    ("distinguishability", "hull_optimal_weights"),
    ("oracle", "max_concurrence_product"),
    ("oracle", "max_concurrence_unrestricted"),
    ("oracle", "max_delta_concurrence"),
    ("oracle", "min_probe_overlap"),
    ("capacities", "verify_relation1"),
    ("capacities", "verify_relation2"),
    ("serialization", "load_matrix"),
    ("cli", "cmd_analyze"),
)


class Tracer:
    """Span recorder; spans are kept in memory as
    [name, start, end, parent, failed, evaluations]."""

    def __init__(self):
        self.spans: list[list] = []
        self.refines: list[tuple[int, int, float]] = []  # (parent span, nfev, fun)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = getattr(result, "evaluations", 0)
            return result

        return traced

    def _wrap_minimize(self, fn):
        refines, stack = self.refines, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            refines.append((stack[-1] if stack else -1, int(res.nfev), float(res.fun)))
            return res

        return counted

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gatecap" or key.startswith("gatecap."))]
        originals = {}
        for mod_name, fn_name in LAYERS:
            module = sys.modules.get("gatecap." + mod_name)
            if module is None:  # not imported by this workload, so never called
                continue
            fn = getattr(module, fn_name)
            originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        oracle = sys.modules["gatecap.oracle"]
        self._saved.append((oracle, "minimize", oracle.minimize))
        oracle.minimize = self._wrap_minimize(oracle.minimize)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self) -> dict:
        return {"spans": self.spans, "refines": self.refines}


def summarize(dumps: list[dict], tolerance: float) -> dict:
    """Per-name totals over several dumps: calls, self seconds, failures,
    evaluations; plus refinement counts and nested product searches.

    A refinement is useful when its final objective lies within
    ``tolerance`` of the best final objective of the refinements in the
    same search span, i.e. of the search's result before clipping.
    """
    stats: dict[str, dict] = {}
    refine = {"calls": 0, "nfev": 0, "useful": 0}
    nested = 0
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _failed, _ev in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, failed, ev) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0, "evaluations": 0})
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child_time[i]
            s["failed"] += int(bool(failed))
            s["evaluations"] += ev
            if (name == "oracle.max_concurrence_product" and parent >= 0
                    and spans[parent][0] == "oracle.max_delta_concurrence"):
                nested += 1
        best: dict[int, float] = {}
        for parent, _nfev, fun in dump["refines"]:
            best[parent] = min(best.get(parent, fun), fun)
        for parent, nfev, fun in dump["refines"]:
            refine["calls"] += 1
            refine["nfev"] += nfev
            refine["useful"] += int(fun - best[parent] <= tolerance)
    return {"layers": stats, "refine": refine, "nested_product_searches": nested}
