"""In-memory spans around calls between coocvec modules.

The tracer replaces every public module-level function of the package, in
every coocvec module namespace that holds it, with a wrapper that records a
span on the layer (defining module) of the function.  A call made while the
innermost open span already belongs to the same layer runs unwrapped, so
nested calls inside one layer merge into one span.  Per-pair functions,
which run hundreds of thousands of times per command, are aggregated into a
call count and a total per parent span instead of one record each.

Methods of classes are not wrapped: their time counts toward the layer that
calls them (for example densifying a sparse matrix inside SVD counts as
factorization).
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field

AGGREGATED = {
    "closed_form.solve_pair",
    "closed_form.minimize_pair_numeric",
    "pmi.pmi_value",
    "regularization.solve_l1",
    "regularization.solve_l2",
    "regularization.solve_exact",
    "regularization.h_function",
}


@dataclass
class _Frame:
    sid: int
    name: str
    layer: str
    start: float
    child: float = 0.0
    aggregates: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while installed; `records` holds finished ones."""

    def __init__(self, package_modules: list) -> None:
        self.modules = package_modules
        self.records: list[dict] = []
        self.pass_id = 0
        self.command = ""
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("coocvec."):
                    continue
                if id(obj) not in wrapped:
                    layer = home.split(".", 1)[1]
                    wrapped[id(obj)] = self._wrap(obj, layer, f"{layer}.{obj.__name__}")
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, layer: str, name: str):
        aggregate = name in AGGREGATED
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(self._next_id, name, layer, clock())
            self._next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end, aggregate)

        return wrapper

    def _close(self, frame: _Frame, end: float, aggregate: bool) -> None:
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        self._flush_aggregates(frame)
        self_s = dur - frame.child
        if aggregate and parent is not None:
            agg = parent.aggregates.setdefault(
                frame.name, {"layer": frame.layer, "calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += self_s
            return
        self.records.append(
            {
                "kind": "span",
                "name": frame.name,
                "layer": frame.layer,
                "start": frame.start,
                "end": end,
                "parent": parent.sid if parent else None,
                "id": frame.sid,
                "pass": self.pass_id,
                "cmd": self.command,
                "calls": 1,
                "self_s": self_s,
            }
        )

    def _flush_aggregates(self, frame: _Frame) -> None:
        for name, agg in frame.aggregates.items():
            self.records.append(
                {
                    "kind": "aggregate",
                    "name": name,
                    "layer": agg["layer"],
                    "parent": frame.sid,
                    "pass": self.pass_id,
                    "cmd": self.command,
                    "calls": agg["calls"],
                    "total_s": agg["total_s"],
                    "self_s": agg["self_s"],
                }
            )

    # ------------------------------------------------------------ output

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def layer_self(records: list[dict], pass_id: int, layer: str, cmd_prefix: str = "",
               func_prefix: str = "") -> float:
    """Summed self time of one layer in one pass, optionally narrowed."""
    total = 0.0
    for rec in records:
        if rec["pass"] != pass_id or rec["layer"] != layer:
            continue
        if not rec["cmd"].startswith(cmd_prefix):
            continue
        if not rec["name"].split(".", 1)[1].startswith(func_prefix):
            continue
        total += rec["self_s"]
    return total


def layer_calls(records: list[dict], pass_id: int, layer: str) -> int:
    return sum(r["calls"] for r in records if r["pass"] == pass_id and r["layer"] == layer)


def covered_time(records: list[dict], pass_id: int) -> float:
    """Time covered by root spans (those without a parent) in one pass."""
    return sum(
        r["end"] - r["start"]
        for r in records
        if r["pass"] == pass_id and r["kind"] == "span" and r["parent"] is None
    )
