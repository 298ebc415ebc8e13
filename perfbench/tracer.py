"""Outside-in tracer: spans around calls into hamfano's public functions.

The tracer replaces functions from outside the package instead of editing
it.  ``from .x import f`` copies the reference into the importing module,
so every ``hamfano.*`` namespace that binds a traced function gets the
wrapper, and intra-module calls (which look the name up in the defining
module) are seen too.  Constructors and methods are wrapped on the class.

Spans (name, start, end, parent span, op id) live in flat arrays while the
run lasts; ``write`` dumps them and ``self_ns`` derives each span's self
time: its duration minus the part its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

MODULES = ("cli", "toric", "fixed_data", "localization", "dh", "fano6", "graphs")

# Classes whose constructor or methods are traced, as "module.Class[.method]".
CLASS_TARGETS = (
    "toric.LatticePolytope",
    "toric.LatticePolytope.vertex_edges",
    "fixed_data.FixedComponent",
    "fixed_data.FixedPointData",
    "graphs.LabelledGraph.edge_weight",
)

OP = "op"  # span name of one benchmark op, the root of its module spans


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [OP]
        self._ids: Dict[str, int] = {OP: 0}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised: Counter = Counter()
        self.generator_calls: Counter = Counter()
        self._stack: List[int] = []
        self._current_op = -1
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable[[], object]):
        """Run one benchmark op under a root span; returns fn's result."""
        self._current_op = op_id
        i = self._open(0)
        try:
            return fn()
        finally:
            self._close(i)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # each resumption of the generator is one span; one call per generator
            def traced_gen(*args, **kwargs):
                tracer.generator_calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = tracer._open(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    yield value

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._close(i)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the traced modules and the class
        targets, in every loaded ``hamfano`` namespace that binds them."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "hamfano" or n.startswith("hamfano.")]
        for short in MODULES:
            mod = sys.modules[f"hamfano.{short}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, key, wrapper)
        for target in CLASS_TARGETS:
            short, cls_name, *method = target.split(".")
            cls = getattr(sys.modules[f"hamfano.{short}"], cls_name)
            attr = method[0] if method else "__init__"
            self._set(cls, attr, self._wrap(target, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_ns(self) -> array:
        """Self time of every span: duration minus the children's durations."""
        n = len(self.name)
        own = array("q", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> Tuple[Counter, Counter]:
        """(calls, self nanoseconds) per span name.  A generator counts one
        call per generator, not per resumption."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        own = self.self_ns()
        for i in range(len(self.name)):
            nm = self.names[self.name[i]]
            self_ns[nm] += own[i]
            calls[nm] += 1
        for nm, n in self.generator_calls.items():
            calls[nm] = n
        return calls, self_ns

    def write(self, path: str) -> None:
        """Dump every span as tab-separated name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\n"
                )
