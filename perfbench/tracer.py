"""Per-layer spans for cfnormal, recorded by wrapping its functions from outside.

``Tracer.install()`` replaces each function named in ``HOOKS`` by a timing
wrapper wherever a loaded ``cfnormal`` module or class holds it (a name that a
module imported with ``from .x import f`` is replaced too), and
``Tracer.uninstall()`` puts every original back.

Each process keeps its totals in memory.  A process forked after
``install()`` (the census worker pool, forked by the default start method
on Linux up to Python 3.13) inherits the wrappers, and writes its
totals to ``<trace_dir>/spans-<pid>.json`` each time an outermost span ends,
because pool workers leave through ``os._exit`` and run no exit hooks.  The
installing process writes its own file when ``dump()`` is called.

Timestamps come from ``time.monotonic()``, one clock for every process on
the machine, so spans of different processes can be laid on one time line.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: counters that merge by maximum instead of by sum
MAX_COUNTERS = frozenset({"limit", "matrix_mb", "pairs_per_chunk_max"})

Count = Callable[["Tracer", Any, tuple, dict, Any], dict]


def merge_counters(totals: dict, increments: dict) -> None:
    """Add counter increments into totals, keeping the maximum of the
    counters in MAX_COUNTERS."""
    for key, value in increments.items():
        if key in MAX_COUNTERS:
            totals[key] = max(totals.get(key, value), value)
        else:
            totals[key] = totals.get(key, 0) + value


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    ``owner`` is a module name, or ``module:Class`` for a method.  The call's
    time goes to the layer's ``clock`` counter, and only at the outermost
    level of that clock, so a nested call of the same layer is not counted
    twice.  ``clock=None`` records counters only.  ``count`` maps
    (tracer, pre, args, kwargs, result) to counter increments, where ``pre``
    is what ``pre(args, kwargs)`` returned before the call.
    """

    owner: str
    name: str
    layer: str
    clock: Optional[str] = "s"
    count: Optional[Count] = None
    pre: Optional[Callable[[tuple, dict], Any]] = None


def _mb(nbytes: int) -> float:
    return nbytes / 1e6


def _sink_position(path: Optional[str]) -> Optional[int]:
    # stdout of a benchmark operation is a regular file, so its offset
    # tells how many bytes a call wrote there
    if path is None or path == "-":
        try:
            return os.lseek(sys.stdout.fileno(), 0, os.SEEK_CUR)
        except (OSError, ValueError):
            return None
    return None


def _sink_bytes(path: Optional[str], before: Optional[int]) -> dict:
    if path is not None and path != "-":
        return {"bytes": os.path.getsize(path)}
    after = _sink_position(path)
    if before is None or after is None:
        return {}
    return {"bytes": after - before}


def _count_digit_matrix(tr, pre, args, kwargs, result):
    mat, lengths = result
    digits = int(lengths.sum())
    inc = {"rows": len(lengths), "digits": digits,
           "matrix_mb": _mb(mat.nbytes)}
    if tr.active.get("digit_block"):
        inc["block_digits"] = digits
    return inc


def _count_tracker_digits(tr, pre, args, kwargs, result):
    digits = args[1] if len(args) > 1 else kwargs["digits"]
    return {"digits": len(digits)}


def _count_chunk(tr, pre, args, kwargs, result):
    rows, _ = result
    return {"chunks": 1, "pairs_per_chunk_max": rows}


def _count_rows(tr, pre, args, kwargs, result):
    return {"row_steps": args[0].n}


def _count_tilted_rows(tr, pre, args, kwargs, result):
    return {"row_steps": args[0].n, "tilted_row_steps": args[0].n}


HOOKS: tuple[Hook, ...] = (
    Hook("cfnormal.sieves", "build_tables", "sieves.tables",
         count=lambda tr, pre, a, k, r: {"builds": 1, "limit": r.limit}),
    Hook("cfnormal.enumeration", "members_block", "enumeration.block",
         count=lambda tr, pre, a, k, r: {"rows": len(r[0])}),
    Hook("cfnormal.enumeration", "rational_at", "enumeration.index"),
    Hook("cfnormal.enumeration", "index_of", "enumeration.index"),
    Hook("cfnormal.enumeration", "count_R", "enumeration.index",
         count=lambda tr, pre, a, k, r: {"count_R_calls": 1}),
    Hook("cfnormal.core", "euclid_digits", "core.expand"),
    Hook("cfnormal.core", "expand", "core.expand"),
    Hook("cfnormal.streams", "digit_matrix", "streams.euclid",
         count=_count_digit_matrix),
    # digit_block is the caller that discards digits: it keeps the first
    # n_digits of what its blocks computed
    Hook("cfnormal.streams", "digit_block", "streams.euclid", clock=None,
         count=lambda tr, pre, a, k, r: {"block_kept": len(r)}),
    Hook("cfnormal.streams", "flatten_digit_matrix", "streams.flatten",
         count=lambda tr, pre, a, k, r: {"mb": _mb(r.nbytes)}),
    Hook("cfnormal.streams", "count_pattern_array", "streams.count"),
    Hook("cfnormal.streams:FrequencyTracker", "run", "streams.count"),
    Hook("cfnormal.streams:FrequencyTracker", "feed", "streams.count"),
    Hook("cfnormal.streams:GrowthTracker", "update_many", "streams.growth",
         count=_count_tracker_digits),
    # stream-file drains its first stream with list(), which calls only
    # __next__; every digit of the scalar path passes through it
    Hook("cfnormal.streams:DigitStream", "__next__", "streams.scalar",
         count=lambda tr, pre, a, k, r: {"digits": 1}),
    Hook("cfnormal.streams:DigitStream", "take", "streams.scalar"),
    Hook("cfnormal.streams", "hypothesis_ratios", "streams.scalar"),
    Hook("cfnormal.cli", "_emit_digits", "cli.serialise",
         pre=lambda a, k: _sink_position(a[2].out),
         count=lambda tr, pre, a, k, r: _sink_bytes(a[2].out, pre)),
    Hook("cfnormal.cli", "_emit_json", "cli.serialise",
         pre=lambda a, k: _sink_position(a[0]),
         count=lambda tr, pre, a, k, r: _sink_bytes(a[0], pre)),
    Hook("cfnormal.census", "_census_chunk", "census.classify",
         clock="worker_busy_s", count=_count_chunk),
    Hook("cfnormal.census", "_classify_block", "census.classify"),
    Hook("cfnormal.census", "_block_occurrences", "census.classify",
         clock="occurrences_s"),
    Hook("cfnormal.census:GaussDigitSampler", "step", "census.sampler",
         clock="step_s", count=_count_rows),
    Hook("cfnormal.census:GaussDigitSampler", "step_tilted", "census.sampler",
         clock="tilted_s", count=_count_tilted_rows),
    Hook("cfnormal.census", "_tune_theta", "census.sampler", clock="pilot_s"),
)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Installs the hooks and keeps one process's totals."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.owner_pid = os.getpid()
        self.layers: dict[str, dict[str, float]] = {}
        self.rss_mb: dict[str, float] = {}
        self.intervals: list[list[float]] = []
        self.active: dict[str, int] = {}  # untimed hook -> calls in progress
        self._layer_depth: dict[str, int] = {}
        self._clock_depth: dict[tuple[str, str], int] = {}
        self._depth = 0
        self._saved: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """Drop the totals a forked child inherited from its parent."""
        self.layers = {}
        self.rss_mb = {}
        self.intervals = []
        self.active = {}
        self._layer_depth = {}
        self._clock_depth = {}
        self._depth = 0

    # -- installing -------------------------------------------------------

    @staticmethod
    def _resolve(owner: str):
        module_name, _, cls = owner.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, cls) if cls else module

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        import cfnormal.cli  # noqa: F401  (loads every module that is hooked)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cfnormal"
                                         or name.startswith("cfnormal."))]
        for hook in HOOKS:
            owner = self._resolve(hook.owner)
            original = getattr(owner, hook.name)
            wrapper = self._wrap(hook, original)
            if isinstance(owner, type):
                self._replace(owner, hook.name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def _replace(self, obj, attr: str, wrapper) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    # -- recording --------------------------------------------------------

    def _add(self, layer: str, increments: dict) -> None:
        merge_counters(self.layers.setdefault(layer, {}), increments)

    def _wrap(self, hook: Hook, fn):
        tracer = self
        layer = hook.layer
        clock_key = (layer, hook.clock)

        def counted(args, kwargs, pre, result):
            if hook.count is not None:
                tracer._add(layer, hook.count(tracer, pre, args, kwargs,
                                              result))

        if hook.clock is None:
            @functools.wraps(fn)
            def untimed(*args, **kwargs):
                pre = hook.pre(args, kwargs) if hook.pre is not None else None
                active = tracer.active
                active[hook.name] = active.get(hook.name, 0) + 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.active[hook.name] -= 1
                counted(args, kwargs, pre, result)
                return result
            return untimed

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            pre = hook.pre(args, kwargs) if hook.pre is not None else None
            layer_depth = tracer._layer_depth.get(layer, 0)
            clock_depth = tracer._clock_depth.get(clock_key, 0)
            tracer._layer_depth[layer] = layer_depth + 1
            tracer._clock_depth[clock_key] = clock_depth + 1
            tracer._depth += 1
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                tracer._layer_depth[layer] = layer_depth
                tracer._clock_depth[clock_key] = clock_depth
                tracer._depth -= 1
            if clock_depth == 0:
                tracer._add(layer, {hook.clock: end - start})
            if layer_depth == 0:
                tracer._add(layer, {"calls": 1})
                rss = _peak_rss_mb()
                if rss > tracer.rss_mb.get(layer, 0.0):
                    tracer.rss_mb[layer] = rss
            counted(args, kwargs, pre, result)
            if tracer._depth == 0:
                tracer.intervals.append([start, end])
                if os.getpid() != tracer.owner_pid:
                    tracer.dump()
            return result

        return timed

    def dump(self) -> None:
        doc = {"pid": os.getpid(), "layers": self.layers,
               "rss_mb": self.rss_mb, "intervals": self.intervals}
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
