"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: around its own calls, and
by temporarily replacing functions the package looks up at call time (module
globals such as `aqualoc.forward.value_and_grad`) or methods of one adapter
instance. Nothing under `src/` is changed. A target a later change deleted or
renamed is skipped and reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Stands in for Tracer in the untraced run; records nothing."""

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """Spans as (name, start, end, parent index, trial id) tuples."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        self.trial = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.trial)

    def _wrapped(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, module: str, attr: str, name: str) -> bool:
        """Record a span named `name` around every call of `module.attr`."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.add(f"{module}.{attr}")
            return False
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrapped(fn, name))
        return True

    def unpatch_all(self) -> None:
        """Undo every module patch, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def instrument_adapter(self, adapter, exact: str, capture: str):
        """Trace one signal-model instance and every `with_pulse` copy of it.

        Calls on `adapter` itself are spans named `exact`; calls on adapters
        it derives through `with_pulse` (the capture passes) are named
        `capture`. The wrappers are attributes of the instances, so only the
        instance handed in (kept for the traced calls) is affected.
        """
        for attr in ("signal_t", "with_pulse"):
            if not callable(getattr(adapter, attr, None)):
                self.missing.add(f"{type(adapter).__name__}.{attr}")
                return adapter
        derive = adapter.with_pulse

        def with_pulse(pulse):
            derived = derive(pulse)
            derived.signal_t = self._wrapped(derived.signal_t, capture)
            return derived

        adapter.signal_t = self._wrapped(adapter.signal_t, exact)
        adapter.with_pulse = with_pulse
        return adapter

    def write(self, path: Path) -> Path:
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "trial": trial}
                ) + "\n")
        return path


@contextmanager
def patched(tracer: Tracer, targets):
    """Install module patches for the duration of one traced unit of work."""
    for module, attr, name in targets:
        tracer.patch(module, attr, name)
    try:
        yield
    finally:
        tracer.unpatch_all()
