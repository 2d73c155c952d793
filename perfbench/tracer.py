"""In-memory span tracing of the ocksr modules, installed from outside the package.

``install`` replaces every public function of the traced modules, and
the ``fit``/``novelty`` methods of the evaluation scorers, with a
wrapper that records one span per call: name, start, end, parent span
and trace (session) id.  A function is patched in every ``ocksr``
module that binds it, so a call is seen wherever the caller looks the
name up: ``ocksr.fit``, ``ocksr.model.factor_batch`` and
``ocksr.baselines.gram`` all reach the wrapper.  ``uninstall`` puts the
originals back.  Nothing inside the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

TRACED_MODULES = ("kernel", "cholesky", "model", "baselines", "evaluation",
                  "dataset", "cli")

# span record layout: [name, start, end, parent index, trace id]
NAME, START, END, PARENT, TRACE = range(5)


class Recorder:
    """Collects spans in memory; spans of one session share a trace id."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.trace_id])
        self.stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own step; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def install(self) -> None:
        """Patch the traced functions in every loaded ocksr module."""
        mods = {short: importlib.import_module(f"ocksr.{short}")
                for short in TRACED_MODULES}
        owners = [m for key, m in sys.modules.items()
                  if key == "ocksr" or key.startswith("ocksr.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(obj, f"{short}.{attr}")
                for owner in owners:
                    for key, val in list(vars(owner).items()):
                        if val is obj:
                            self._patches.append((owner, key, obj))
                            setattr(owner, key, wrapper)
            if short == "evaluation":
                for cls in _scorer_classes(mod):
                    for meth in ("fit", "novelty"):
                        orig = cls.__dict__[meth]
                        self._patches.append((cls, meth, orig))
                        setattr(cls, meth,
                                self.wrap(orig, f"evaluation.{cls.__name__}.{meth}"))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par, self.trace_id])

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a name table plus one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[TRACE]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trace"],
                       "names": names, "spans": rows}, fh)


def load_dump(path: str) -> list[list]:
    with open(path) as fh:
        blob = json.load(fh)
    names = blob["names"]
    return [[names[n], start, end, parent, trace]
            for n, start, end, parent, trace in blob["spans"]]


def _scorer_classes(mod) -> list[type]:
    return [obj for obj in vars(mod).values()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__
            and "fit" in obj.__dict__ and "novelty" in obj.__dict__]


def layer_totals(spans: list[list], trace_id: int | None = None) -> dict[str, dict]:
    """Per span name: inclusive seconds, self seconds and call count.

    Inclusive time counts only the outermost span of a name on any path,
    so a function reached twice on one call chain is not double counted.
    Self time is a span's duration minus the durations of its children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if trace_id is not None and s[TRACE] != trace_id:
            continue
        name = s[NAME]
        dur = s[END] - s[START]
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            agg["s"] += dur
    return out
