"""Runtime span tracing of vibropol's layer entry points.

The library source is not edited: each traced function is wrapped at
run time, and the wrapper is bound under every name a caller can look it
up by (``vibropol.polarimetry.orientation_vs_energy`` as well as
``vibropol.dipole.orientation_vs_energy`` and the names ``cli`` imports).
Spans are timed in process CPU seconds, like the ops they sit in; they
stay in memory and are aggregated, and written out, when the run ends.

Traced are the named entry points of the compute layers (``TRACED``),
every public function of ``io`` and ``config``, and ``cli.main``.  Three
layers are merged into one span name each: every ``io.write_*`` is
``io.write``, every ``io.read_*`` is ``io.read`` and every public
function of ``config`` is ``config``.  ``cli.main`` is ``cli``; the
helpers it calls (argument, grid and header handling) are not wrapped,
so they count as ``cli`` self time.  Untraced helpers, such as
``polarimetry.fit_malus`` under ``analyze_map``, count toward the self
time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("core", "vibronic", "dipole", "polarimetry", "photostats", "io",
           "config", "cli")
TRACED = {
    "dipole": ("orientation_vs_energy", "apply_strain_bias"),
    "vibronic": ("mode_line_weights", "acoustic_wing_density",
                 "lineshape_density", "lineshape_bruteforce"),
    "polarimetry": ("simulate_polarization_map", "analyze_map"),
    "photostats": ("simulate_stream", "g2_histogram"),
}


def span_name(module: str, func: str) -> str | None:
    """Span name of public function vibropol.<module>.<func>, or None."""
    if module == "cli":
        return "cli" if func == "main" else None
    if module == "config":
        return "config"
    if module == "io":
        return "io." + func.split("_", 1)[0]
    return f"{module}.{func}" if func in TRACED.get(module, ()) else None


def _file_size(args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _counts(name, result):
    """Work counters of a finished span, read off the function's result."""
    try:
        if name == "dipole.orientation_vs_energy":
            return {"points": int(result.valid.size),
                    "valid": int(result.valid.sum())}
        if name == "vibronic.lineshape_density":
            return {"points": int(result.size)}
        if name == "polarimetry.simulate_polarization_map":
            return {"cells": int(result.intensity.size)}
        if name == "polarimetry.analyze_map":
            return {"bins": int(result.valid.size),
                    "valid": int(result.valid.sum())}
        if name == "photostats.simulate_stream":
            return {"tags": int(result.time_tags.size)}
        if name == "photostats.g2_histogram":
            return {"pairs": int(result.coincidences.sum())}
    except (AttributeError, TypeError):
        pass                     # a changed result type leaves no counts
    return None


class Tracer:
    """Wraps the traced functions; install/remove swap their bindings."""

    def __init__(self):
        self.spans = []        # (op, id, parent, name, t0, t1, counts)
        self._stack = []
        self.op = None
        wrappers = {}
        for short in MODULES:
            mod = sys.modules.get(f"vibropol.{short}")
            for attr, obj in (vars(mod).items() if mod else ()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = span_name(short, attr)
                if name is not None:
                    wrappers[obj] = self._wrap(obj, name)
        # (module, attribute, original, wrapper) for every name under which
        # any loaded vibropol module binds a traced function
        self._bindings = [
            (mod, attr, obj, wrappers[obj])
            for key, mod in list(sys.modules.items())
            if key == "vibropol" or key.startswith("vibropol.")
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers]

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            # io.read counts the file before the call, io.write after it
            counts = ({"bytes": _file_size(args, kwargs)}
                      if name == "io.read" else None)
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)              # reserve the slot in call order
            stack.append(span_id)
            t0 = time.process_time()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.process_time()
                stack.pop()
                spans[span_id] = (self.op, span_id, parent, name, t0, t1,
                                  counts)
            if name == "io.write":
                counts = {"bytes": _file_size(args, kwargs)}
            elif name != "io.read":
                counts = _counts(name, result)
            spans[span_id] = spans[span_id][:6] + (counts,)
            return result

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def self_times(self, ops):
        """Per-name (self seconds, calls, summed counts) over spans of ops."""
        child = [0.0] * len(self.spans)
        for op, _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for op, sid, _, name, t0, t1, counts in self.spans:
            if op not in ops:
                continue
            s, n, c = out.get(name, (0.0, 0, {}))
            for k, v in (counts or {}).items():
                c[k] = c.get(k, 0) + v
            out[name] = (s + (t1 - t0) - child[sid], n + 1, c)
        return out

    def dump(self, path):
        """Write every span as one JSON object per line."""
        keys = ("op", "id", "parent", "name", "t0", "t1", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
