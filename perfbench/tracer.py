"""Span tracing from outside the program.

For a traced run the benchmark swaps surfwalk's public functions and a few
methods for wrappers that record one span per call: its name, start, end,
parent span and op id, and sizes read from the arguments and the result.
Every module binding of a function is swapped, including the names that
``cli``, ``comfortability`` and ``walk_dynamics`` import with
``from ... import``, and :meth:`Patch.restore` puts every original back, so
the untraced run measures the unmodified program.

Spans are reduced as they close: each name accumulates its calls, total
time and self time (its time minus the time of its child spans), so a
pass of hundreds of thousands of calls needs no span log.  The first
``KEEP_SPANS`` spans are also kept whole and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

KEEP_SPANS = 10_000


@dataclass
class Stat:
    """Per-name totals over the spans closed since the last reset."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    sizes: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; only while ``active`` do wrappers record."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.op = -1
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._count = 0

    def take_stats(self) -> dict[str, Stat]:
        """The totals since the last call, and a fresh start."""
        stats, self.stats = self.stats, {}
        return stats

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._count, name, parent, self.clock(), 0.0]
        self._count += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list, end: float, sizes: dict | None = None):
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        index, name, parent, start, child_s = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - child_s
        for key, value in (sizes or {}).items():
            stat.sizes[key] = stat.sizes.get(key, 0) + value
            stat.peaks[key] = max(stat.peaks.get(key, value), value)
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                {"id": index, "name": name, "parent": parent, "op": self.op,
                 "start": start, "end": end, "sizes": sizes or {}}
            )

    def wrap(self, name: str, fn, sizes=None):
        """A stand-in for ``fn`` that records a span around each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(frame, self.clock())
                raise
            end = self.clock()
            self.close(frame, end, sizes(args, kwargs, result) if sizes else None)
            return result

        return traced


# --------------------------------------------------------------------------
# What is traced in surfwalk.  A target is "module:attribute"; a method
# target is "module:Class.method".  Span names drop "__post_init__", so the
# validation of a dataclass is named after the class.
# --------------------------------------------------------------------------


def _tails(args, kwargs, s):
    dims = [len(tails) for tails, _ in s.blocks]
    return {"tails": sum(dims), "max_block": max(dims, default=0)}


def _steps(args, kwargs, state):
    bg = args[0] if args else kwargs["bg"]
    return {"steps": state.steps, "step_arcs": state.steps * bg.size}


def _classes(args, kwargs, classes):
    return {"raw": sum(c.orbit_size for c in classes), "classes": len(classes)}


def _bytes_out(args, kwargs, code):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv[:-1]:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"bytes": os.path.getsize(path)}
    return {}


TARGETS = {
    "graph_core:SymmetricDigraph.__post_init__": None,
    "rotation_system:RotationSystem.__post_init__": None,
    "rotation_system:flip_vertex": None,
    "rotation_system:mirror": None,
    "rotation_system:trace_faces": None,
    "rotation_system:detect_orientability": None,
    "covering_blowup:double_cover": None,
    "covering_blowup:blow_up": lambda a, k, bg: {"arcs": bg.size},
    "covering_blowup:attach_hedgehog": None,
    "walk_dynamics:step": None,
    "walk_dynamics:run_to_stationary": _steps,
    "walk_dynamics:outflow_map": None,
    "scattering:scattering_matrix": _tails,
    "scattering:ScatteringMatrix.matrix": None,
    "scattering:ScatteringMatrix.q_matrix": None,
    "scattering:stationary_closed_form": None,
    "comfortability:comfortability": None,
    "comfortability:average_comfortability": None,
    "comfortability:positive_coin_average": None,
    "comfortability:average_by_enumeration": None,
    "comfortability:limit_comfortability": None,
    "enumeration:enumerate_embeddings": _classes,
    "enumeration:graph_automorphisms": None,
    "enumeration:rank_by_comfortability": None,
    "fileformat:parse_rotation_system": None,
    "cli:main": _bytes_out,
}


def span_name(target: str) -> str:
    return target.replace(":", ".").removesuffix(".__post_init__")


class Patch:
    """The bindings a traced run replaced, and how to put them back."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patch:
    """Swap every binding of each target for a traced wrapper."""
    # Import every target module first, so that each one's own bindings of
    # the others' functions exist before they are swapped.
    modules = {t: importlib.import_module(f"surfwalk.{t.split(':')[0]}") for t in TARGETS}
    patch = Patch()
    try:
        for target, sizes in TARGETS.items():
            module, attr = modules[target], target.split(":")[1]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                patch.set(owner, method, tracer.wrap(span_name(target), original, sizes))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(span_name(target), original, sizes)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "surfwalk" and not mod_name.startswith("surfwalk."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patch.set(mod, name, wrapper)
    except BaseException:
        patch.restore()
        raise
    return patch
