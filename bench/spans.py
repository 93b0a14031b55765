"""Span tracer that wraps fput2d's public functions from outside the package.

While `Tracer.recording(op)` is active, every public module-level function of
the traced layers is replaced, in every loaded fput2d module that bound it,
by a wrapper that records one span: (id, parent id, operation id, name,
start ns, end ns, pid).  The originals are restored on exit, so untraced
operations run the program unchanged.

`lattice.integrate` additionally wraps its observer callback as the span
`harness.observe`, so lattice self time excludes the observation work.

Sweep workers are forked while recording is active and inherit the wrappers;
a worker keeps its own spans and writes them to `out_dir` whenever its
outermost span closes, before the result travels back.  `collect` merges
those files into the parent's spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("nls", "ansatz", "lattice", "harness", "dispersion")
SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "pid")


def public_functions(module):
    """Module-level functions defined in `module` whose names are public."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = self.pid << 32  # ids stay unique across processes
        self._root_parent = None
        self._op = None
        self._is_child = False

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_child()
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else tracer._root_parent
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer._op, name, start, end, tracer.pid))
                if tracer._is_child and not tracer._stack:
                    tracer._flush_child()

        return traced

    def _enter_child(self):
        # first span in a forked worker: keep the span open at the fork (the
        # sweep that started the pool) as the parent of the worker's spans,
        # and drop the rest of the parent's state
        self._root_parent = self._stack[-1] if self._stack else None
        self.pid = os.getpid()
        self.spans, self._stack = [], []
        self._next_id = self.pid << 32
        self._is_child = True

    def _flush_child(self):
        # rewrites the worker's whole list, which covers every task it ran
        path = self.out_dir / f"spans-op{self._op}-pid{self.pid}.json"
        path.write_text(json.dumps(self.spans))

    def _wrap_integrate(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def integrate(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["observer"] = self.wrap("harness.observe",
                                                    bound.arguments["observer"])
            return fn(*bound.args, **bound.kwargs)

        return integrate

    def _replacements(self):
        out = {}
        for layer in LAYERS:
            for name, fn in public_functions(sys.modules[f"fput2d.{layer}"]).items():
                inner = fn
                if (layer, name) == ("lattice", "integrate"):
                    inner = self._wrap_integrate(fn)
                out[id(fn)] = self.wrap(f"{layer}.{name}", inner)
        return out

    @contextlib.contextmanager
    def recording(self, op: int):
        """Trace operation `op`: install the wrappers, restore on exit."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        wrappers = self._replacements()
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("fput2d"):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        self._op = op
        try:
            yield
        finally:
            self._op = None
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    def collect(self, op: int) -> list[tuple]:
        """All spans of `op`: the parent's plus those its workers wrote."""
        spans = [s for s in self.spans if s[2] == op]
        for path in sorted(self.out_dir.glob(f"spans-op{op}-pid*.json")):
            spans.extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()
        return spans


def dump_spans(path: Path, spans):
    path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": spans}))


def self_times(spans) -> dict[int, float]:
    """Seconds of each span not covered by any of its direct children.

    Children may run in parallel (sweep workers under the sweep), so the
    covered part is the union of their intervals.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, parent, _op, _name, start, end, _pid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _op, _name, start, end, _pid in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start - covered) * 1e-9
    return out
