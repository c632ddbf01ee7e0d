"""Span recording around the program's public callables, from outside.

The benchmark never edits the program: :func:`install` replaces a fixed
list of public functions and methods with thin wrappers that record one
span per call (name, start, end, parent, operation id) into a
:class:`SpanRecorder`.  Spans stay in memory until :meth:`SpanRecorder.dump`
writes them out at the end of a run.  Untraced runs never call
:func:`install`, so they execute the program's own callables untouched.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, class or None, attribute).  Every entry is a
#: public callable of the layer the span name's prefix names.
WRAPPED: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("calibration.calibrate", "repro.core.calibration", None, "calibrate"),
    ("executor.run", "repro.runtime.executor", "Executor", "run"),
    ("executor.map", "repro.runtime.executor", "Executor", "map"),
    ("spec.fingerprint", "repro.runtime.spec", "RunSpec", "fingerprint"),
    ("serde.encode", "repro.runtime.serde", None, "run_result_to_dict"),
    ("serde.decode", "repro.runtime.serde", None, "run_result_from_dict"),
    ("store.put_many", "repro.runtime.store", "ResultStore", "put_many"),
    ("store.get_many", "repro.runtime.store", "ResultStore", "get_many"),
    ("store.put", "repro.runtime.store", "ResultStore", "put"),
    ("store.get", "repro.runtime.store", "ResultStore", "get"),
    ("machine.run_batch_multi", "repro.uarch.machine", "Machine",
     "run_batch_multi"),
    ("machine.run_colocated_groups", "repro.uarch.machine", "Machine",
     "run_colocated_groups"),
    ("pmu.emit_counters", "repro.uarch.pmu", None, "emit_counters"),
    ("slowdown.predict", "repro.core.slowdown", "SlowdownPredictor",
     "predict"),
    ("fleet.plan", "repro.policies.fleet", "FleetPlanner", "plan"),
    ("fleet.score", "repro.fleet.tournament", None, "run_tournament"),
)


class SpanRecorder:
    """In-memory span log plus exact work counters.

    A span's parent is the innermost open span of the same thread, so
    the solver thread of the prediction server keeps its own stack.
    """

    def __init__(self) -> None:
        #: (name, start_s, end_s, parent index or -1, op id or None)
        self.spans: List[Tuple[str, float, float, int, Optional[int]]] = []
        self.counts: Dict[str, float] = {}
        #: Lane count of every ``run_batch_multi`` call, in call order.
        self.batch_widths: List[int] = []
        self.op_id: Optional[int] = None
        #: Wrappers call straight through while this is false, so one
        #: process can time the same inputs with and without recording.
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, delta: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + delta

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], args: Any,
             kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0,
                               stack[-1] if stack else -1, self.op_id))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                _, _, _, parent, op = self.spans[index]
                self.spans[index] = (name, start, end, parent, op)

    def inclusive_s(self, name: str) -> float:
        """Summed wall duration of the outermost spans called ``name``."""
        return sum(end - start for span, start, end, parent, _
                   in self.spans
                   if span == name and (parent < 0 or
                                        self.spans[parent][0] != name))

    def layer_table(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name, over spans ``first`` onwards: calls, total self
        seconds (duration minus the children's), and the median over
        operations of each operation's self seconds."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Dict[str, int] = {}
        per_op: Dict[Tuple[str, Optional[int]], float] = {}
        for index in range(first, len(self.spans)):
            name, start, end, _, op = self.spans[index]
            calls[name] = calls.get(name, 0) + 1
            key = (name, op)
            per_op[key] = (per_op.get(key, 0.0) + (end - start) -
                           child_s[index])
        table: Dict[str, Dict[str, float]] = {}
        for name in sorted(calls):
            ops = [seconds for (span, op), seconds in per_op.items()
                   if span == name and op is not None]
            table[name] = {
                "calls": calls[name],
                "self_s": sum(seconds for (span, _), seconds
                              in per_op.items() if span == name),
                "self_s_per_op": statistics.median(ops) if ops else 0.0}
        return table

    def dump(self, path: Any) -> None:
        """Write every span as one JSON line (names, not indices)."""
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": self.spans[parent][0] if parent >= 0
                    else None, "parent_index": parent, "op": op}) + "\n")


def _bindings(module_name: str, original: Any) -> List[Any]:
    """Every loaded ``repro`` module that binds ``original`` by name."""
    owners = [sys.modules[module_name]]
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None and
                module not in owners):
            if any(value is original
                   for value in vars(module).values()):
                owners.append(module)
    return owners


def install(recorder: SpanRecorder) -> None:
    """Wrap every callable in :data:`WRAPPED` so calls record spans."""
    import importlib
    for span_name, module_name, class_name, attr in WRAPPED:
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attr)
            wrapper = _function_wrapper(recorder, span_name, original)
            for owner in _bindings(module_name, original):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            continue
        cls = getattr(module, class_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_function_wrapper(
                recorder, span_name, raw.__func__)))
        else:
            setattr(cls, attr, _function_wrapper(recorder, span_name, raw))


def _function_wrapper(recorder: SpanRecorder, name: str,
                      fn: Callable[..., Any]) -> Callable[..., Any]:
    if name == "machine.run_batch_multi":
        @functools.wraps(fn)
        def solve(cls: Any, specs: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(cls, specs, **kwargs)
            # Borrow the solver's own telemetry dict when the caller
            # passed none; the values are exact work counts.
            stats = kwargs.setdefault("stats", {})
            specs = list(specs)
            result = recorder.call(name, fn, (cls, specs), kwargs)
            recorder.count("machine.lanes", len(specs))
            recorder.count("machine.outer_iterations",
                           int(stats.get("outer_iterations", 0)))
            recorder.count("machine.nonconverged",
                           int(stats.get("nonconverged", 0)))
            with recorder._lock:
                recorder.batch_widths.append(len(specs))
            return result
        return solve
    if name == "pmu.emit_counters":
        @functools.wraps(fn)
        def emit(*args: Any, **kwargs: Any) -> Any:
            if recorder.enabled:
                recorder.count("pmu.emit_counters_calls")
            return recorder.call(name, fn, args, kwargs)
        return emit

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, fn, args, kwargs)
    return wrapper
