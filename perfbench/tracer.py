"""Spans around hamstab's layer boundaries, recorded from outside the package.

The benchmark never edits ``src/``.  It wraps the public functions of each
module and rebinds every module-level name that refers to the original
object, so ``from .quadrature import integrate`` bindings in other modules
are covered as well as the defining module.  Methods are wrapped on their
classes, which covers every instance.

A span is ``(id, parent id, name, start, end, count)``; the parent is the
innermost span open on the same thread.  Spans stay in memory until the
pass is summarised.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

SPAN_ATTR = "_perfbench_span"

# By-name bindings that must hold a wrapper whenever they exist.
REQUIRED_BINDINGS = (
    ("hamstab.analyzer", "integrate"),
    ("hamstab.verification", "integrate"),
    ("hamstab.verification", "induced_geometry_batch"),
    ("hamstab.variation", "quadrature.integrate"),
)

# Spans under which a quadrature grid may legitimately be built.
GRID_OWNERS = ("quadrature.integrate", "analyzer.verify_certificate")


def _hamstab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hamstab" or name.startswith("hamstab."))
    ]


def rebind(old, new) -> list[str]:
    """Point every module-level hamstab name bound to ``old`` at ``new``."""
    bound = []
    for mod in _hamstab_modules():
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                bound.append(f"{mod.__name__}.{attr}")
    return bound


def cap_threads(limit: int) -> list[str]:
    """Cap the worker count of every thread pool hamstab creates."""

    def executor(max_workers=None, *args, **kwargs):
        return ThreadPoolExecutor(min(max_workers or limit, limit), *args, **kwargs)

    return rebind(ThreadPoolExecutor, executor)


def time_verdicts(latencies: list) -> list[str]:
    """Append ``("catalog_id|strategy", seconds, args, kwargs)`` for every
    ``classify`` call; the arguments let a verdict be timed again."""
    from hamstab import analyzer

    original = analyzer.classify

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        verdict = original(*args, **kwargs)
        latencies.append((f"{verdict.catalog_id}|{verdict.strategy}", time.perf_counter() - t0, args, kwargs))
        return verdict

    return rebind(original, timed)


def _second_arg_len(args, result):
    return len(args[1])


def _witnesses(args, result):
    return (result.witness_pos is not None) + (result.witness_neg is not None)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.bindings: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` gives its count."""
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            spans.append((sid, parent, name, t0, t1, count(args, result) if count else 0))
            return result

        setattr(wrapper, SPAN_ATTR, name)
        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary of the loaded hamstab package."""
        from hamstab import analyzer, catalog, immersion, quadrature, testfunctions, variation, verification

        functions = [
            (quadrature, "integrate", "quadrature.integrate", None),
            (quadrature, "build_grid", "quadrature.build_grid", lambda a, r: r.size),
            (quadrature, "pairwise_sum", "quadrature.pairwise_sum", None),
            (variation, "evaluate_functional", "variation.evaluate_functional", None),
            (immersion, "induced_geometry_batch", "immersion.induced_geometry_batch",
             lambda a, r: len(r["points"])),
            (immersion, "check_lagrangian", "immersion.structural", None),
            (immersion, "check_h_minimal", "immersion.structural", None),
            (immersion, "trisymmetry_residual", "immersion.structural", None),
            (analyzer, "classify", "analyzer.classify", _witnesses),
            (analyzer, "assemble_form", "analyzer.assemble_form", None),
            (analyzer, "scaling_probe", "analyzer.scaling_probe", None),
            (analyzer, "verify_certificate", "analyzer.verify_certificate", None),
        ]
        for module, attr, name, count in functions:
            original = getattr(module, attr)
            self.bindings += rebind(original, self.wrap(name, original, count))

        grid = quadrature.Grid
        grid.points_and_weights = self.wrap(
            "quadrature.points_and_weights", grid.points_and_weights, lambda a, r: len(r[1])
        )
        self.bindings.append("hamstab.quadrature.Grid.points_and_weights")

        pending = [testfunctions.TestFunction]
        while pending:
            cls = pending.pop()
            pending += cls.__subclasses__()
            if cls is not testfunctions.TestFunction and "jet" in vars(cls):
                cls.jet = self.wrap("testfunctions.jet", vars(cls)["jet"], _second_arg_len)
                self.bindings.append(f"{cls.__module__}.{cls.__qualname__}.jet")

        for mod in _hamstab_modules():
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__ and callable(
                    vars(obj).get("integrand")
                ):
                    obj.integrand = self.wrap("variation.integrand", vars(obj)["integrand"], _second_arg_len)
                    self.bindings.append(f"{mod.__name__}.{obj.__qualname__}.integrand")

        closed_form = catalog.ClosedFormFunctional
        init = closed_form.__init__

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            obj.integrand = self.wrap("catalog.integrand", obj.integrand, lambda a, r: len(a[0]))

        closed_form.__init__ = traced_init
        self.bindings.append("hamstab.catalog.ClosedFormFunctional.integrand")

        for i, (num, title, fn) in enumerate(verification.CRITERIA):
            verification.CRITERIA[i] = (num, title, self.wrap(f"verification.criterion_{num}", fn))
        self.bindings.append("hamstab.verification.CRITERIA")

    def unwrapped_bindings(self) -> list[str]:
        """Required by-name bindings that exist but hold no wrapper."""
        missing = []
        for modname, path in REQUIRED_BINDINGS:
            obj = sys.modules.get(modname)
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if obj is not None and not hasattr(obj, SPAN_ATTR):
                missing.append(f"{modname}.{path}")
        return missing


def summarize(spans) -> tuple[dict, dict, int]:
    """Per-layer metrics, deterministic work counts and the number of grids
    built outside any integrate or certificate span."""
    by_id = {s[0]: s for s in spans}
    child_time: dict = defaultdict(float)
    for _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0

    def ancestor_names(span):
        parent = span[1]
        while parent is not None and parent in by_id:
            span = by_id[parent]
            yield span[2]
            parent = span[1]

    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    outer_calls: dict = defaultdict(int)
    outer_count: dict = defaultdict(int)
    max_grid = 0
    form_passes = classify_evaluations = orphans = 0
    for span in spans:
        sid, _, name, t0, t1, count = span
        self_s[name] += (t1 - t0) - child_time[sid]
        calls[name] += 1
        above = set(ancestor_names(span))
        if name not in above:
            total_s[name] += t1 - t0
            outer_calls[name] += 1
            outer_count[name] += count
        if name == "quadrature.build_grid":
            max_grid = max(max_grid, count)
            if not above.intersection(GRID_OWNERS):
                orphans += 1
        elif name == "variation.evaluate_functional":
            form_passes += "analyzer.assemble_form" in above
            classify_evaluations += "analyzer.classify" in above

    counts = {
        "quadrature.grids": calls["quadrature.build_grid"],
        "quadrature.points": outer_count["quadrature.build_grid"],
        "quadrature.max_grid_points": max_grid,
        "testfunctions.jet_calls": outer_calls["testfunctions.jet"],
        "testfunctions.jet_points": outer_count["testfunctions.jet"],
        "variation.evaluations": calls["variation.evaluate_functional"],
        "variation.integrand_points": outer_count["variation.integrand"],
        "immersion.geometry_calls": calls["immersion.induced_geometry_batch"],
        "immersion.geometry_points": outer_count["immersion.induced_geometry_batch"],
        "analyzer.classify_calls": outer_calls["analyzer.classify"],
        "analyzer.form_passes": form_passes,
    }
    witnesses = outer_count["analyzer.classify"]
    layers = dict(counts)
    layers.update(
        {
            "quadrature.build_s": self_s["quadrature.build_grid"],
            "quadrature.mesh_s": self_s["quadrature.points_and_weights"],
            "quadrature.reduce_s": self_s["quadrature.pairwise_sum"],
            "quadrature.self_s": self_s["quadrature.integrate"],
            "testfunctions.jet_s": self_s["testfunctions.jet"],
            "variation.integrand_s": self_s["variation.integrand"],
            "catalog.integrand_s": self_s["catalog.integrand"],
            "immersion.geometry_s": self_s["immersion.induced_geometry_batch"],
            "immersion.structural_s": self_s["immersion.structural"],
            "analyzer.classify_s": total_s["analyzer.classify"],
            "analyzer.assemble_form_s": total_s["analyzer.assemble_form"],
            "analyzer.scaling_probe_s": total_s["analyzer.scaling_probe"],
            "analyzer.certificate_s": total_s["analyzer.verify_certificate"],
            "analyzer.witness_yield": witnesses / classify_evaluations if classify_evaluations else 0.0,
        }
    )
    for num in range(1, 13):
        layers[f"verification.criterion_{num}_s"] = total_s[f"verification.criterion_{num}"]
    return layers, counts, orphans
