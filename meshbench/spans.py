"""In-memory spans for the traced run, and the per-layer figures made from them.

A span records one call into a csetrw layer made from the benchmark:
name ("<layer>.<call>"), start, end, parent span and op id. Spans whose
`estimate` flag is set re-run, after the op, a call that the program
makes inside another call (which the benchmark cannot time from
outside); their parent is the call they are part of. A span's self time
is its duration minus the durations of its children, estimated ones
included, so self times add up to the op's time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, id, parent, name, start, end, estimate]
        self.stack: list[int] = []
        self.last: dict[str, int] = {}
        self.op = 0

    @contextmanager
    def span(self, name: str, parent: int | None = None, estimate: bool = False):
        sid = len(self.spans)
        if parent is None and self.stack:
            parent = self.stack[-1]
        rec = [self.op, sid, parent, name, 0.0, 0.0, estimate]
        self.spans.append(rec)
        self.stack.append(sid)
        self.last[name] = sid
        rec[4] = perf_counter()
        try:
            yield sid
        finally:
            rec[5] = perf_counter()
            self.stack.pop()

    def call(self, name: str, fn, *args, parent: int | None = None, estimate: bool = False):
        with self.span(name, parent, estimate):
            return fn(*args)

    def estimate(self, parent: int | str, name: str, fn, *args):
        """Re-run a call the program makes inside span `parent`, given by id
        or as the name of the latest span so named."""
        if isinstance(parent, str):
            parent = self.last[parent]
        return self.call(name, fn, *args, parent=parent, estimate=True)

    def write(self, path) -> None:
        keys = ("op", "id", "parent", "name", "start", "end", "estimate")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def summarize(spans: list[list], ops: list[int]) -> dict[str, float]:
    """Mean ms per op: per call name, per call's self time, per layer
    (outermost spans of the layer) and per layer's self time; plus the
    traced op time, the root span's duration (estimates run after it)."""
    ops = set(ops)
    n = max(len(ops), 1)
    by_id = {rec[1]: rec for rec in spans}
    child_ms: dict[int, float] = {}
    for op, _, parent, _, start, end, _ in spans:
        if op in ops and parent is not None:
            child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1e3
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value / n

    for op, sid, parent, name, start, end, _ in spans:
        if op not in ops:
            continue
        ms = (end - start) * 1e3
        own = ms - child_ms.get(sid, 0.0)
        layer = name.split(".")[0]
        add(f"{name}_ms", ms)
        add(f"{name}_self_ms", own)
        add(f"{layer}.self_ms", own)
        if parent is None or by_id[parent][3].split(".")[0] != layer:
            add(f"{layer}.ms", ms)
        if name == ROOT:
            add("trace.op_ms", ms)
    return out
