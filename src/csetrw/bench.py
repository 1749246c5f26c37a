"""Benchmark harness: pattern search and edge flipping over grid meshes.

`step` flips once, at the cell whose top-left corner is the vertex nearest the centre, and counts
the result's parts. Counts are reproducible and checked by tests; wall times (the median call, and
`first_seconds`, the first, which builds what later calls reuse) are informative only.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from typing import IO

from .mesh import flip_rule, gen_mesh, quad_pattern
from .rewrite import DPO, find_and_rewrite, rewrite
from .search import SearchOptions, homomorphisms

TASKS = ("homsearch", "rewrite", "step")
FIELDS = ("size", "rows", "cols", "count", "seconds", "first_seconds")


# Each size is called until about SECONDS_PER_SIZE have been spent on it,
# at least once, and its median call is reported. The calls of all sizes
# are spread evenly over one schedule, so that a slow spell of a shared
# machine falls on every size alike, and the median drops the calls that
# a preemption or a garbage collection happened to hit.
SECONDS_PER_SIZE = 0.1


def _workload(task: str, rows: int, cols: int, kind: str):
    if task not in TASKS:
        raise ValueError(f"unknown benchmark task {task!r}")
    mesh = gen_mesh(rows, cols)
    if task == "homsearch":
        pattern = quad_pattern()
        return lambda: len(homomorphisms(pattern, mesh))
    rule = flip_rule(kind)
    if task == "rewrite":
        return lambda: len(find_and_rewrite(rule, mesh, SearchOptions(monic=True)))
    corner = (rows // 2) * (cols + 1) + cols // 2 + 1  # vertex (rows // 2, cols // 2)
    match = homomorphisms(rule.lhs, mesh, SearchOptions(monic=True, initial={"V": {1: corner}}, limit=1))[0]
    return lambda: sum(rewrite(rule, match).result.card.values())


def _timed(call) -> tuple[int, float]:
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def run_bench(task: str, sizes: list[tuple[int, int]], kind: str = DPO) -> list[dict]:
    calls = [_workload(task, rows, cols, kind) for rows, cols in sizes]
    counts, times, schedule = [], [], []
    for i, call in enumerate(calls):
        count, first = _timed(call)
        counts.append(count)
        times.append([first])
        extra = math.ceil(SECONDS_PER_SIZE / first) - 1
        schedule += [(k / extra, i) for k in range(extra)]
    for _, i in sorted(schedule):
        times[i].append(_timed(calls[i])[1])
    return [
        {"size": f"{rows}x{cols}", "rows": rows, "cols": cols, "count": count,
         "seconds": round(statistics.median(ts), 6), "first_seconds": round(ts[0], 6)}
        for (rows, cols), count, ts in zip(sizes, counts, times)
    ]


def write_csv(rows: list[dict], fh: IO[str]) -> None:
    writer = csv.DictWriter(fh, fieldnames=FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def parse_sizes(spec: str) -> list[tuple[int, int]]:
    """Parse a size list like "2x2,2x3,2x4"; empty string means no sizes."""
    out: list[tuple[int, int]] = []
    for token in filter(None, (t.strip() for t in spec.split(","))):
        rows, _, cols = token.partition("x")
        out.append((int(rows), int(cols)))
    return out
