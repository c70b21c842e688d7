"""Outside-in tracing of permchannel for the traced benchmark passes.

The program is not edited: after ``permchannel`` is imported, each public
function of its modules (and two hot methods) is replaced by a wrapper, and
the wrapper is rebound in every ``permchannel`` module, and in every
module-level dict, that held the original.  Modules such as ``cli`` and
``channel`` import names like ``square_root_count`` directly, so patching
only the home module would miss their calls.

``Tracer`` records call counts, inclusive and self time per function, and
spans; ``PeakTracer`` measures the traced-memory peak of a few functions in
a pass of its own, so that tracemalloc does not distort the times.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("perms", "kernels", "counting", "characters", "encoding", "channel", "cli")
METHODS = (("perms", "Permutation", "__mul__"), ("perms", "PermutationGroup", "validate"))
PEAK_FUNCTIONS = ("encoding.message_basis_cyclic", "channel.verify_zero_error", "channel.dense_coding_certify")
SPAN_LIMIT = 10_000  # spans kept per job; later ones are only counted


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "permchannel" or name.startswith("permchannel."))
    ]


def targets() -> list[tuple[str, str, object, str, object]]:
    """(traced name, layer, holder, attribute, original) for everything traced.

    Generator functions are skipped: a wrapper would time only the creation
    of the generator, so their work is counted in the caller's self time.
    """
    out = []
    for layer in LAYERS:
        module = sys.modules.get(f"permchannel.{layer}")
        if module is None:
            continue
        for attr, obj in sorted(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not inspect.isgeneratorfunction(obj)
            ):
                out.append((f"{layer}.{attr}", layer, module, attr, obj))
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules.get(f"permchannel.{layer}"), cls_name, None)
        if isinstance(cls, type) and attr in vars(cls):
            out.append((f"{layer}.{cls_name}.{attr}", layer, cls, attr, vars(cls)[attr]))
    return out


class Patcher:
    """Replaces traced callables and puts the originals back on ``restore``."""

    def __init__(self):
        self.wrapped: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, holder, attr, original, wrapper) -> None:
        if isinstance(holder, type):
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)
            return
        for module in _package_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapper
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = wrapper

    def install(self, names=None) -> None:
        for name, layer, holder, attr, original in targets():
            if names is None or name in names:
                self._replace(holder, attr, original, self.wrap(name, layer, original))
                self.wrapped.append(name)

    def restore(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, type):
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._undo.clear()

    def wrap(self, name, layer, fn):
        raise NotImplementedError


# Counters computed from a call's arguments (and never from the program's
# internals), keyed by traced name.  Each gets the bound arguments.


def _kernel_table_entries(counters, args) -> None:
    counters["kernels.entries"] += args["d"] ** len(args["inv_images"])


def _kernel_reps_entries(counters, args) -> None:
    counters["kernels.entries"] += args["d"] ** args["n"]


def _dense_largest(counters, size: int) -> None:
    counters["channel.dense_bytes"] = max(counters["channel.dense_bytes"], size)


def _verify_dense(counters, args) -> None:
    basis = args["basis"]
    # the d**n x len(basis) complex128 basis matrix (and its permuted copy)
    _dense_largest(counters, 16 * basis.d**basis.n * len(basis.entries))


def _dense_coding_dense(counters, args) -> None:
    # per sector: the (m**2, d**n * m) complex128 matrix of entangled states;
    # the CLI always passes the basis (without one, this counts a measure error)
    _dense_largest(counters, 16 * args["d"] ** args["n"] * max(args["basis"].multiplicities) ** 3)


def _json_out_bytes(counters, args) -> None:
    counters["encoding.out_bytes"] += os.path.getsize(args["path"])


MEASURES = {
    "kernels.action_table": _kernel_table_entries,
    "kernels.orbit_reps": _kernel_reps_entries,
    "channel.verify_zero_error": _verify_dense,
    "channel.dense_coding_certify": _dense_coding_dense,
    "encoding.write_basis_json": _json_out_bytes,
}


class Tracer(Patcher):
    """Call counts, inclusive time, per-layer self time and spans.

    A function's inclusive time counts only its outermost active call, so
    recursion is not counted twice.  A layer's self time is the time inside
    its wrapped functions minus the time of the wrapped calls nested in them.
    """

    def __init__(self):
        super().__init__()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: defaultdict = defaultdict(float)
        self.measure_errors: Counter = Counter()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._ids = itertools.count()

    def wrap(self, name, layer, fn):
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        stack, active, spans, ids = self._stack, self._active, self.spans, self._ids
        measure = MEASURES.get(name)
        signature = inspect.signature(fn) if measure else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                calls[name] += 1
                if not active[name]:
                    inclusive[name] += duration
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, name, start, end, parent))
                else:
                    self.spans_dropped += 1
            if measure is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    measure(self.counters, bound.arguments)
                except Exception:  # a changed signature must not break the job
                    self.measure_errors[name] += 1
            return result

        return wrapper

    def report(self) -> dict:
        decode_table = getattr(sys.modules.get("permchannel.channel"), "_decode_table", None)
        info = decode_table.cache_info() if hasattr(decode_table, "cache_info") else None
        return {
            "wrapped": self.wrapped,
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_s),
            "counters": dict(self.counters),
            "measure_errors": dict(self.measure_errors),
            "decode_cache": {"hits": info.hits, "misses": info.misses} if info else None,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


class PeakTracer(Patcher):
    """Peak traced memory of ``PEAK_FUNCTIONS``, above the level at entry.

    tracemalloc runs only while one of them is active.  A nested call resets
    the peak, so the enclosing frame first folds the peak so far into its own.
    """

    def __init__(self):
        super().__init__()
        self.peaks: dict[str, int] = {}
        self._stack: list[list[int]] = []

    def install(self, names=PEAK_FUNCTIONS) -> None:
        super().install(names)

    def wrap(self, name, layer, fn):
        stack, peaks = self._stack, self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                current, peak = tracemalloc.get_traced_memory()
                stack[-1][1] = max(stack[-1][1], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                current = 0
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                stack.pop()
                peaks[name] = max(peaks.get(name, 0), frame[1] - frame[0])
                if stack:
                    stack[-1][1] = max(stack[-1][1], frame[1])
                    tracemalloc.reset_peak()
                else:
                    tracemalloc.stop()

        return wrapper

    def report(self) -> dict:
        return {"wrapped": self.wrapped, "peaks": self.peaks}
