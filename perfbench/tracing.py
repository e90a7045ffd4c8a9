"""Spans and counters recorded around calls into crosscap's public functions.

The tracer swaps each traced function for a wrapper in every loaded
``crosscap`` module namespace that binds it, so calls between modules (for
example ``oracle`` calling ``components.reconstruct``) are seen too.  Nothing
under ``src/`` changes; :meth:`Tracer.restore` puts the originals back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (``-1`` at the root) and ``op`` the operation it belongs to.
Spans are recorded only while the tracer is active, so the benchmark's own
input generation and output checks stay out of the figures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped with a span, named "<module>.<function>".
SPANNED = (
    ("coords", "parse_coords"),
    ("coords", "format_coords"),
    ("inversion", "invert"),
    ("inversion", "coordinatize"),
    ("components", "profile"),
    ("components", "reconstruct"),
    ("large", "counts_for_range"),
    ("intersect", "elementary_values"),
    ("oracle", "build_diagram"),
    ("oracle", "count_crossings"),
    ("render", "render_svg"),
)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)

    def count(self, name: str, k: int = 1):
        if self.active:
            self.counts[name] += k

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result):
        if name == "intersect.elementary_values":
            self.counts["intersect.curves"] += len(result)
        elif name == "components.reconstruct":
            self.counts["components.slots"] += sum(result.arc_sizes)
        elif name == "render.render_svg":
            self.counts["render.svg_bytes"] += len(result.encode())

    def _counting_realizable(self, fn):
        tracer = self

        def wrapper(coords):
            ok = fn(coords)
            if not ok:
                tracer.count("inversion.unrealizable")
            return ok

        return wrapper

    def _counting_invert(self, fn, error_type):
        wrapped = self._spanned("inversion.invert", fn)
        tracer = self

        def wrapper(coords):
            try:
                return wrapped(coords)
            except error_type:
                tracer.count("inversion.unrealizable")
                raise

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the traced functions in every loaded crosscap module."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "crosscap" or name.startswith("crosscap."))
        ]
        errors = sys.modules["crosscap.errors"]
        replace = {}
        for mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"crosscap.{mod_name}"], fn_name)
            if fn_name == "invert":
                wrapper = self._counting_invert(
                    original, errors.UnrealizableCoordinatesError
                )
            else:
                wrapper = self._spanned(f"{mod_name}.{fn_name}", original)
            replace[id(original)] = (original, wrapper)
        realizable = sys.modules["crosscap.inversion"].realizable
        replace[id(realizable)] = (realizable, self._counting_realizable(realizable))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def restore(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(calls, self seconds, inclusive seconds)``.

        A span's self time is its duration minus the time its child spans
        cover; children of one span never overlap (one thread).
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += (t1 - t0) - child[idx]
            row[2] += t1 - t0
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path):
        """Write every span as a tab-separated line."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            base = self.spans[0][1] if self.spans else 0.0
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{parent}\t{op}\n")
