"""Per-layer tracing for the benchmark, applied from outside the package.

``Tracer.installed`` wraps the public functions of each traced module of
``photonpurify`` and the permanent kernel behind ``optics.permanent``. A
wrapper counts calls and records inclusive and self time; self time is a
call's duration minus the time its traced callees took. ``scheme``,
``verify``, ``measurement``, ``sweep`` and ``cli`` bind these functions
with ``from ... import``, so every package module attribute that holds an
original function is rebound to its wrapper, not only the defining one.
Everything is restored when the context exits; the package source is
never edited.

Spans are aggregated per layer name as they close instead of being kept
one by one: a traced sweep makes about 300k of them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Modules whose public functions and constructors are traced.
TRACED_MODULES = (
    "fock",
    "optics",
    "measurement",
    "expansion",
    "scheme",
    "sweep",
    "verify",
    "cli",
)

#: Layer name of the Ryser kernel that ``optics.permanent`` dispatches to.
KERNEL = "optics.kernel"


class Tracer:
    """Call counts, inclusive and self time per layer, plus layer counters.

    Counters kept beside the timings:

    * ``kernel_dims``: kernel calls by matrix dimension;
    * ``pruned``: amplitudes dropped by ``StateVector`` construction,
      counted as input dict size minus stored dict size;
    * ``condition_null``: ``measurement.condition`` calls that returned no
      state;
    * ``heralded``: ``scheme.run_scheme`` calls whose output state exists.
    """

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.kernel_dims: Counter[int] = Counter()
        self.pruned = 0
        self.condition_null = 0
        self.heralded = 0
        self._stack: list[float] = []
        #: Layer name -> (before, after) hooks feeding the counters above.
        self._hooks = {
            "fock.StateVector": (self._state_size_in, self._state_size_out),
            "measurement.condition": (None, self._condition_out),
            "scheme.run_scheme": (None, self._scheme_out),
            KERNEL: (self._count_kernel, None),
        }

    def _timed(self, name: str, fn):
        calls, total_s, self_s, stack = self.calls, self.total_s, self.self_s, self._stack
        clock = time.perf_counter
        before, after = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    # Layer-specific counters, run outside the timed region.

    def _count_kernel(self, args):
        self.kernel_dims[args[0].shape[0]] += 1

    def _state_size_in(self, args):
        return len(args[0].amps)

    def _state_size_out(self, args, _result, size_in):
        self.pruned += size_in - len(args[0].amps)

    def _condition_out(self, _args, result, _token):
        if result.state is None:
            self.condition_null += 1

    def _scheme_out(self, _args, result, _token):
        if result.output_state is not None:
            self.heralded += 1

    @contextmanager
    def installed(self, package):
        """Wrap the traced layers of ``package`` for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        replacements: dict[int, tuple] = {}
        class_patches = []
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    class_patches.extend(self._class_patch(name, obj))
                elif callable(obj):
                    replacements[id(obj)] = (obj, self._timed(name, obj))
        kernel = sys.modules[f"{package.__name__}.optics"].permanent_kernel
        replacements[id(kernel)] = (kernel, self._timed(KERNEL, kernel))

        undo = []
        try:
            for cls, method, wrapper in class_patches:
                undo.append((cls, method, vars(cls)[method]))
                setattr(cls, method, wrapper)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    hit = replacements.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        undo.append((module, attr, obj))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _class_patch(self, name: str, cls):
        # Construction is traced through __post_init__ for dataclasses and
        # __init__ for plain classes; generated dataclass __init__ methods
        # without validation are left alone.
        if "__post_init__" in vars(cls):
            method = "__post_init__"
        elif "__init__" in vars(cls) and not dataclasses.is_dataclass(cls):
            method = "__init__"
        else:
            return []
        return [(cls, method, self._timed(name, vars(cls)[method]))]

    def table(self) -> list[dict]:
        """Every traced layer that was called, by descending self time."""
        return [
            {"layer": name, "calls": self.calls[name],
             "self_s": self.self_s[name], "total_s": self.total_s[name]}
            for name in sorted(self.calls, key=lambda n: -self.self_s[n])
        ]
