"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces each traced function with a wrapper that opens a
span (name, parent, start, end) and rebinds the wrapper in every
``terracini`` module that holds the original, since ``from .algebra import
exact_rank`` copies the binding.  Spans stay in memory; ``dump`` writes them
out once, and ``layer_totals`` turns them into calls and self time per name,
where self time is a span's duration minus its children's.

The package itself is never edited: ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# the algebra functions that get a span; element-wise helpers such as dot and
# normalize_point run millions of times, and a span each would cost more than
# the work it measures
_ALGEBRA_FUNCTIONS = {
    "exact_rank": "algebra.rank",
    "jet2_eval": "algebra.jet2_eval",
    "uni_roots_mod_p": "algebra.roots",
    "subspace_intersect": "algebra.subspace_intersect",
}
_SPAN_MODULES = ("varieties", "secant", "contact", "fiber")
_HANDLE_METHODS = ("tangent_frame", "pullback_jet2", "pullback_poly_jet2", "intrinsic_dim")
_PULLBACKS = ("varieties.pullback_jet2", "varieties.pullback_poly_jet2")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.jet_keys: set = set()
        self._pinned: dict[int, object] = {}  # keeps ids of traced handles unique
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span named ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _span_wrapper(self, fn, name: str, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters kept at the layer boundaries --------------------------------

    def _on_rank(self, m, *_) -> None:
        self.counts["algebra.rank.cells"] += m.rows * m.cols

    def _on_chart_jet2(self, handle, w, *_) -> None:
        self._pinned[id(handle)] = handle
        self.jet_keys.add((id(handle), w))
        self.counts["chart_jet2.calls"] += 1
        if any(self.spans[i][0] in _PULLBACKS for i in self.stack):
            self.counts["chart_jet2.order2"] += 1

    def _on_fiber_report(self, rep) -> None:
        self.counts["fiber.preimages"] += sum(sum(c) for c in rep.cardinalities.values())
        self.counts["fiber.center_hits"] += sum(rep.center_hits.values())

    # -- patching -----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every package module's binding of ``original`` at the wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname != "terracini" and not modname.startswith("terracini."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        import terracini.algebra as algebra
        import terracini.varieties as varieties

        for attr, name in _ALGEBRA_FUNCTIONS.items():
            fn = getattr(algebra, attr)
            on_call = self._on_rank if attr == "exact_rank" else None
            self._rebind(fn, self._span_wrapper(fn, name, on_call=on_call))
        self._patch_method(algebra.Matrix, "rref", self._span_wrapper(algebra.Matrix.rref, "algebra.rref"))
        self._patch_method(
            algebra.MultiPoly, "evaluate", self._count_wrapper(algebra.MultiPoly.evaluate, "algebra.evaluate")
        )

        for short in _SPAN_MODULES:
            mod = sys.modules[f"terracini.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                on_return = self._on_fiber_report if (short, attr) == ("fiber", "fiber_probe") else None
                self._rebind(fn, self._span_wrapper(fn, f"{short}.{attr}", on_return=on_return))

        base = varieties.VarietyHandle
        for attr in _HANDLE_METHODS:
            self._patch_method(base, attr, self._span_wrapper(base.__dict__[attr], f"varieties.{attr}"))
        for cls in _subclasses(base):
            if "chart_jet2" in cls.__dict__:
                name = f"varieties.chart_jet2.{cls.kind}"
                wrapper = self._span_wrapper(cls.__dict__["chart_jet2"], name, on_call=self._on_chart_jet2)
                self._patch_method(cls, "chart_jet2", wrapper)
            if "sample" in cls.__dict__:
                self._patch_method(cls, "sample", self._span_wrapper(cls.__dict__["sample"], "varieties.sample"))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()
        self._pinned.clear()

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, dict[str, float], dict[str, float]]:
        """Calls, self seconds and inclusive seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for i, (name, _, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
        return calls, self_s, total_s

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: [id, parent, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, t0, t1]) + "\n")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
