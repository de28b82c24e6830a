"""In-memory span recorder that traces a package by replacing module attributes.

``Recorder.install`` swaps every public function of the given modules (and any
extra ``(owner, attribute)`` pairs, such as methods) for a wrapper that records
a span: name, start, end, parent span and the error it raised, if any.  The
wrapper is bound in every module of the package that holds the original
function, so calls made inside the package (for example one module calling a
function another module imported by name, or a module calling its own
function through a global) are traced too.  ``uninstall`` puts the originals
back.  Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None
    children_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Span time not covered by child spans (children never overlap:
        the traced code runs in one thread)."""
        return self.duration - self.children_s


# (span, bound arguments by parameter name, return value, names of direct child spans)
Annotator = Callable[[Span, dict, object, list[str]], None]


class Recorder:
    """Span stack and span list for one traced region."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.active = True
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def paused(self):
        """Run a block (an oracle check, say) without recording spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn: Callable, annotate: Annotator | None = None) -> Callable:
        rec = self
        signature = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, parent=rec._stack[-1] if rec._stack else -1)
            index = len(rec.spans)
            rec._stack.append(index)
            rec.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
                if span.parent >= 0:
                    rec.spans[span.parent].children_s += span.duration
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                children = [s.name for s in rec.spans[index + 1 :] if s.parent == index]
                annotate(span, bound.arguments, out, children)
            return out

        return traced

    # -- installing -------------------------------------------------------------

    def install(
        self,
        modules: dict[str, ModuleType],
        extra: dict[str, tuple[object, str]] | None = None,
        annotators: dict[str, Annotator] | None = None,
    ) -> None:
        """Wrap the public functions of ``modules`` (keyed by short name) and the
        ``extra`` attributes."""
        if self._saved:
            raise RuntimeError("recorder is already installed")
        targets: dict[str, tuple[object, str, Callable]] = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                targets[f"{short}.{attr}"] = (mod, attr, fn)
        for name, (owner, attr) in (extra or {}).items():
            targets[name] = (owner, attr, inspect.getattr_static(owner, attr))
        for name, (owner, attr, fn) in targets.items():
            wrapper = self.wrap(name, fn, (annotators or {}).get(name))
            holders = [owner] + [
                m for m in modules.values() if m is not owner and vars(m).get(attr) is fn
            ]
            for holder in holders:
                self._saved.append((holder, attr, fn))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved = []

    # -- reading ------------------------------------------------------------------

    def outermost(self, *names: str) -> list[Span]:
        """Spans named in ``names`` with no ancestor named in ``names`` (so
        recursive or nested calls are not counted twice)."""
        out = []
        for span in self.spans:
            if span.name not in names:
                continue
            p = span.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                out.append(span)
        return out

    def total_s(self, *names: str) -> float:
        return sum(s.duration for s in self.outermost(*names))

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def info_sum(self, name: str, key: str) -> float:
        """Sum of an annotation over the outermost spans of ``name``."""
        return sum(s.info.get(key, 0) for s in self.outermost(name))

    def info_max(self, name: str, key: str) -> float:
        return max((s.info.get(key, 0) for s in self.spans if s.name == name), default=0)

    def span_records(self) -> list[dict]:
        """The spans as JSON-ready dicts (written out when the run ends)."""
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self_s": s.self_s,
                "error": s.error,
                **({"info": s.info} if s.info else {}),
            }
            for s in self.spans
        ]
