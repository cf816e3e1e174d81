"""In-memory call spans for the benchmark's traced runs.

``Tracer.install`` replaces every public function of the traced pacmerge
modules, and the public methods of their classes, with a wrapper that records
one span per call: function, start, end and the span that was open when it
was called.  A module that imported a function by name (``mc_risk`` is bound
in ``pacmerge.posterior``, ``pacmerge.certify`` and ``pacmerge.harness``)
holds its own reference, so every binding in every loaded pacmerge module is
replaced, not only the defining one.  ``Tracer.uninstall`` puts the originals
back.  The package's own files are never edited.

A few wrappers also count work where it happens: rows and multiply-adds
through ``toyzoo.forward``, posterior draws through ``posterior.sample``,
bytes written by ``harness.write_report``, and, for each ``cma.minimize``
search, the evaluations spent and the index of the last improvement.

Spans are kept in flat arrays while the run lasts and written out by
``Tracer.save`` at the end.  Calls must stay on one thread: the open-span
stack is shared.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_MODULES = (
    "bounds", "certify", "cma", "harness", "merging", "params", "posterior",
    "seeding", "toyzoo",
)


def _public_callables(module):
    """(label, owner, attribute, function) for each public function defined in
    ``module`` and each public plain method of its classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if not method_name.startswith("_") and inspect.isfunction(method):
                    yield f"{short}.{attr}.{method_name}", obj, method_name, method


class Tracer:
    """Records spans for calls into the pacmerge layers."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.searches: list[dict] = []  # one per cma.minimize call

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"pacmerge.{name}"] for name in TRACED_MODULES]
        wrappers = {}
        for module in modules:
            for label, owner, attr, fn in _public_callables(module):
                wrapper = self._wrap(fn, label)
                if owner is module:
                    wrappers[id(fn)] = wrapper
                else:
                    self._patch(owner, attr, wrapper)
        binders = [m for name, m in sys.modules.items()
                   if name == "pacmerge" or name.startswith("pacmerge.")]
        for module in binders:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, label: str):
        code = self._label_index.setdefault(label, len(self.labels))
        if code == len(self.labels):
            self.labels.append(label)
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter
        key = label.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(labels)
            labels.append(code)
            parents.append(open_spans[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _before_toyzoo_forward(self, args, kwargs):
        spec, x = args[0], args[2]
        rows = np.atleast_2d(x).shape[0]
        macs = sum(a * b for a, b in zip(spec.widths[:-1], spec.widths[1:]))
        self.counters["toyzoo.forward.rows"] += rows
        self.counters["toyzoo.forward.flop"] += 2.0 * rows * macs
        return args, kwargs

    def _before_posterior_sample(self, args, kwargs):
        self.counters["posterior.draws"] += args[2] if len(args) > 2 else kwargs["k"]
        return args, kwargs

    def _after_harness_write_report(self, path):
        self.counters["harness.report_bytes"] += Path(path).stat().st_size

    def _before_cma_minimize(self, args, kwargs):
        args = list(args)
        caller_callback = args.pop(3) if len(args) > 3 else kwargs.pop("callback", None)
        search = {"evals": 0, "best": math.inf, "last_improvement": 0}
        self.searches.append(search)

        def observe(index, x, value):
            search["evals"] += 1
            if value < search["best"]:
                search["best"] = value
                search["last_improvement"] = index
            if caller_callback is not None:
                caller_callback(index, x, value)

        kwargs["callback"] = observe
        return tuple(args), kwargs

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.label)

    def by_label(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per traced function.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested on one thread, so the children
        of a span never overlap.
        """
        code = np.frombuffer(self.label, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(code))
        self_time = duration - child_time
        width = len(self.labels)
        calls = np.bincount(code, minlength=width)
        total = np.bincount(code, weights=duration, minlength=width)
        own = np.bincount(code, weights=self_time, minlength=width)
        return {
            label: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, label in enumerate(self.labels)
        }

    def durations(self, label: str, unless_parent=()) -> list[float]:
        """Durations of the ``label`` spans whose parent span is not labelled
        with one of ``unless_parent``."""
        if label not in self._label_index:
            return []
        code = np.frombuffer(self.label, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        keep = code == self._label_index[label]
        excluded = [self._label_index[l] for l in unless_parent if l in self._label_index]
        if excluded:
            parent_code = np.where(parent >= 0, code[np.maximum(parent, 0)], -1)
            keep &= ~np.isin(parent_code, excluded)
        return duration[keep].tolist()

    def save(self, path: Path) -> None:
        """Write every span: label table plus label, parent, start, end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
