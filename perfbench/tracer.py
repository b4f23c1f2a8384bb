"""Span tracer that wraps privagg's public functions from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) and a call.
Modules bind each other's functions with ``from .x import y``, so a
function is replaced under every name it is looked up by, in every loaded
privagg module, not only in the module that defines it.

Spans stay in memory for one round; ``take_round`` folds them into per-name
call counts, inclusive times and self times (inclusive time minus the time
covered by child spans) and clears them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "privagg"
MODULES = ("cli", "formats", "seeding", "mechanism", "accountant", "oracle",
           "verification", "simulation")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []     # [name index, parent span, start, end]
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.facts: dict[str, object] = {}
        self._hooks = {
            "oracle.outcome_distribution": self._on_outcome_distribution,
            "oracle.enumerate_neighbors": self._on_enumerate_neighbors,
        }
        self._reset_facts()

    # -- facts recorded from arguments and results -------------------------

    def _reset_facts(self) -> None:
        self.facts = {"outcome_keys": set(), "neighbor_pairs": 0}

    def _on_outcome_distribution(self, args, kwargs, result) -> None:
        hist = args[0] if args else kwargs["hist"]
        gamma = args[1] if len(args) > 1 else kwargs["gamma"]
        self.facts["outcome_keys"].add((tuple(hist.counts), float(gamma)))

    def _on_enumerate_neighbors(self, args, kwargs, result) -> None:
        self.facts["neighbor_pairs"] += len(result)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1], clock(), 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of MODULES wherever it is bound."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    # -- folding -----------------------------------------------------------

    def take_round(self) -> dict:
        """Per-name calls, inclusive and self seconds of the spans so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for index, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        k = len(self.names)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i, (index, parent, start, end) in enumerate(spans):
            calls[index] += 1
            incl[index] += end - start
            self_s[index] += end - start - child[i]
        facts = dict(self.facts, outcome_keys=len(self.facts["outcome_keys"]))
        out = {"spans": len(spans), "facts": facts,
               "calls": dict(zip(self.names, calls)),
               "incl_s": dict(zip(self.names, incl)),
               "self_s": dict(zip(self.names, self_s))}
        spans.clear()
        self._reset_facts()
        return out
