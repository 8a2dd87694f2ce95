"""Per-layer tracing installed from outside the program.

``install`` replaces the public functions of each ``debranges`` module, and
the hot ``Poly`` and ``ZSeries`` methods, by wrappers that record a span
(name, start, end, parent) per call.  A span's self time is its duration
minus the time covered by its child spans.  Spans stay in memory, up to a
cap, and are written out when the run ends; the per-name totals are kept
for every call, including those beyond the cap.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# methods traced under a layer name of their own
METHODS = {
    "exact": ("Poly", {
        "__mul__": "poly_mul", "__rmul__": "poly_mul", "__call__": "poly_eval",
        "divmod": "poly_divmod", "gcd": "poly_gcd", "shift": "poly_shift",
        "resultant": "poly_resultant",
    }),
    "series": ("ZSeries", {
        "__mul__": "zseries_mul", "__rmul__": "zseries_mul", "inverse": "zseries_inverse",
    }),
}
# functions traced under a shared name
ALIASES = {"lowner.ode_residual": "lowner.residual", "lowner.system_residual": "lowner.residual"}


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.extensions = 0  # coeff_table calls that grew the table
        self._stack: list[list] = []  # [child time, span id] per open span
        self._ids = itertools.count()
        self._undo: list = []

    def wrap(self, name: str, fn):
        stack, spans, clock, ids = self._stack, self.spans, time.perf_counter, self._ids
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        cap = self.max_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                stat[2] += duration
                if len(spans) < cap:
                    spans.append((frame[1], parent[1] if parent else None, name, start, end))

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def install(self, mods: dict) -> None:
        """Wrap the layers of the modules given as {short name: module}."""
        replaced = {}  # id(original) -> wrapper, so every binding gets the same one
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                replaced[id(obj)] = self.wrap(name, obj)
            if short in METHODS:
                cls_name, methods = METHODS[short]
                cls = getattr(mod, cls_name)
                for attr, layer in methods.items():
                    self._patch(cls, attr, self.wrap(f"{short}.{layer}", vars(cls)[attr]))
        lowner = mods["lowner"]
        inner = replaced[id(lowner.coeff_table)]

        @functools.wraps(inner)
        def counted(n_max, *args, **kwargs):
            if n_max > lowner._cached.n_max:
                self.extensions += 1
            return inner(n_max, *args, **kwargs)

        replaced[id(lowner.coeff_table)] = counted
        # rebind every module-level reference, including the package's
        # re-exports; the originals stay alive, so their ids are unique
        package = sys.modules[lowner.__package__]
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])
        suites = mods["cli"]._SUITES
        for suite, fn in list(suites.items()):
            self._patch_item(suites, suite, self.wrap(f"cli.suite.{suite}", fn))

    def _patch_item(self, mapping: dict, key, new) -> None:
        old = mapping[key]
        mapping[key] = new
        self._undo.append((mapping, key, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the per-name totals, then one line per recorded span."""
        with open(path, "w") as f:
            summary = {
                name: {"calls": c, "self_s": s, "total_s": t}
                for name, (c, s, t) in sorted(self.stats.items())
            }
            total = sum(c for c, _, _ in self.stats.values())
            f.write(json.dumps({"summary": summary, "spans_kept": len(self.spans),
                                "spans_dropped": total - len(self.spans)}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
