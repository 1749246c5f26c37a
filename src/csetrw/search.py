"""Backtracking search for homomorphisms, monomorphisms and isomorphisms.

The search treats parts of the pattern as variables and parts of the host
as domain values. Assigning a part immediately forces the images of all
its column successors, so a single branching decision fixes whole orbits
and conflicts surface as early as possible.

The branching order is fixed by the pattern alone. Each connected
component of the pattern starts at a part of the most source-ward object
(`SchemaPresentation.sources_first`: a triangle before its edges, an
edge before its vertices) and grows breadth-first along columns and
preimage indices. Only the roots and the parts reached through a
preimage index are branched on, each of the latter on the host's
preimages of its assigned target. Candidates come in ascending order and
results are sorted, so the result list does not depend on the order;
`limit` keeps the first matches found in it, then sorts them. With the
order fixed, so is what each step forces and checks: a plan of
straight-line steps is compiled once per pattern and pin-key tuple (the
pinned (object, part) pairs, not their values) and kept on the pattern.
It names host columns and indices by generator; each search binds them
and runs the plan on an explicit stack, so pattern size is not bounded
by the interpreter's recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from .errors import PartOutOfRangeError
from .instance import CSetInstance
from .transform import Transformation, _adopt


@dataclass
class SearchOptions:
    monic: bool = False
    initial: dict[str, dict[int, int]] | None = None
    limit: int | None = None


def _branch_order(x: CSetInstance) -> Iterator[tuple[str, int]]:
    """The pattern parts the search branches on, in branching order."""
    schema, column, index = x.schema, x.column, x.index
    seen = {obj: [False] * n for obj, n in x.card.items()}
    for root_obj in schema.sources_first:
        root_seen = seen[root_obj]
        for root in range(1, len(root_seen) + 1):
            if root_seen[root - 1]:
                continue
            root_seen[root - 1] = True
            yield root_obj, root
            queue = [(root_obj, root)]
            for obj, part in queue:
                for gen in schema.outgoing(obj):
                    q = column[gen.name][part - 1]
                    if not seen[gen.cod][q - 1]:
                        seen[gen.cod][q - 1] = True
                        queue.append((gen.cod, q))
                for gen in schema.incoming(obj):
                    for q in index[gen.name][part - 1]:
                        if not seen[gen.dom][q - 1]:
                            seen[gen.dom][q - 1] = True
                            yield gen.dom, q
                            queue.append((gen.dom, q))


def _compile(x: CSetInstance, keys: tuple[tuple[str, int], ...]) -> tuple:
    """The pattern half of a search pinned at `keys`, naming no host: (slots, spans, steps).

    A slot per pattern part, each object's in a run (`spans`: object,
    start, length), then one for the value tried. A step is its
    candidates, (slot of the first assigned target, generator) for its
    host preimages or (None, object) for all host parts; its writes
    (source slot, generator, slot, object) of its part, from the value
    tried (generator None), and of the parts that forces; and its checks
    (source slot, generator, slot) on assigned parts its candidates do
    not imply. Pins come first: a pin's step draws from all host parts,
    and a part an earlier pin forced only has the value tried checked
    against it (generator None).
    """
    schema, column, objects = x.schema, x.column, x.schema.objects
    offset = dict(zip(objects, accumulate((x.card[obj] for obj in objects), initial=0)))
    known = [False] * (sum(x.card[obj] for obj in objects) + 1)  # assigned by a pin or an earlier step

    def step(obj: str, part: int, pinned: bool = False) -> tuple:
        """The step that assigns a part; marks what it assigns."""
        slot = offset[obj] + part - 1
        if known[slot]:
            return None, obj, [], [(-1, None, slot)]
        narrowed, candidates = None, (None, obj)
        for g in () if pinned else schema.outgoing(obj):
            d = offset[g.cod] + column[g.name][part - 1] - 1
            if known[d]:
                narrowed, candidates = g.name, (d, g.name)
                break
        known[slot] = True
        writes, checks = [(-1, None, slot, obj)], []
        queue = [(obj, part, slot)]
        for src_obj, src, s in queue:
            for g in schema.outgoing(src_obj):
                if s == slot and g.name == narrowed:
                    continue
                q = column[g.name][src - 1]
                d = offset[g.cod] + q - 1
                if known[d]:
                    checks.append((s, g.name, d))
                else:
                    known[d] = True
                    writes.append((s, g.name, d, g.cod))
                    queue.append((g.cod, q, d))
        return *candidates, writes, checks

    steps = [step(obj, part, True) for obj, part in keys]
    steps += [step(obj, part) for obj, part in _branch_order(x) if not known[offset[obj] + part - 1]]
    return len(known), [(obj, offset[obj], x.card[obj]) for obj in objects], steps


def _run(steps: list, slots: int, y: CSetInstance, opts: SearchOptions, values: list) -> list[list[int]]:
    """The host half: bind the steps to y's columns, index and monic marks, and run them.

    A pin's one candidate is its value, if y has that part. Only under monic does a step
    clear its slots and marks, before each try and when it runs out. Returns sorted slot lists.
    """
    column, every = y.column, {obj: range(1, n + 1) for obj, n in y.card.items()}
    used = {obj: [False] * n for obj, n in y.card.items()} if opts.monic else None
    steps = [
        (d, every[src] if d is None else y.index[src],
         [(s, every[obj] if g is None else column[g], t, used and used[obj]) for s, g, t, obj in writes],
         [(s, every[src] if g is None else column[g], t) for s, g, t in checks])
        for d, src, writes, checks in steps
    ]
    for i, value in enumerate(values):
        _, parts, writes, checks = steps[i]
        steps[i] = None, [value] if value in parts else (), writes, checks
    assign, results, limit = [0] * slots, [], opts.limit

    def try_(writes: list, checks: list, value: int) -> bool:
        assign[-1] = value
        for s, col, d, mark in writes:
            v = col[assign[s] - 1]
            if mark:
                if mark[v - 1]:
                    return False
                mark[v - 1] = True
            assign[d] = v
        for s, col, d in checks:
            if col[assign[s] - 1] != assign[d]:
                return False
        return True

    def clear(writes: list) -> None:
        for _, _, d, mark in writes:
            v = assign[d]
            if v:
                mark[v - 1] = False
                assign[d] = 0

    tried: list[Iterator[int]] = [iter(())] * len(steps)  # per step, its candidates left
    depth = 0  # steps entered
    while True:
        if depth == len(steps):
            results.append(assign[:-1])
            if limit is not None and len(results) >= limit:
                break
        else:
            d, index, _, _ = steps[depth]
            tried[depth] = iter(index if d is None else index[assign[d] - 1])
            depth += 1
        while depth:
            _, _, writes, checks = steps[depth - 1]
            for value in tried[depth - 1]:
                if used:
                    clear(writes)
                if try_(writes, checks, value):
                    break
            else:
                if used:
                    clear(writes)
                depth -= 1
                continue
            break
        else:
            break
    # comparing flat slot lists compares components by object, then part
    results.sort()
    return results


def homomorphisms(
    x: CSetInstance, y: CSetInstance, opts: SearchOptions | None = None
) -> list[Transformation]:
    """All natural transformations x -> y extending opts.initial.

    Results come in a fixed order: components flattened by object
    declaration then part id, compared lexicographically. With
    opts.monic only injective-per-object maps are returned; opts.limit
    stops the search after that many matches in branching order (see
    the module docstring), which are returned in the same fixed order;
    it must be at least 0. A pin on an object not in the schema raises
    ValueError, on a pattern part outside 1..card PartOutOfRangeError; a
    pin to a missing host part finds nothing.
    """
    if x.schema != y.schema:
        raise ValueError("homomorphism search requires a shared schema")
    opts = opts or SearchOptions()
    if opts.limit is not None and opts.limit < 0:
        raise ValueError(f"limit must be at least 0, got {opts.limit}")
    pins = opts.initial or {}
    for obj, parts in pins.items():
        if obj not in x.card:
            raise ValueError(f"pinned object {obj!r} is not in the schema")
        for part in parts:
            if not 1 <= part <= x.card[obj]:
                raise PartOutOfRangeError(f"pinned pattern part {part} outside 1..{x.card[obj]} for {obj!r}")
    if opts.limit == 0:
        return []
    keys = tuple((obj, part) for obj, parts in pins.items() for part in parts)
    if keys not in x.plans:
        x.plans[keys] = _compile(x, keys)
    slots, spans, steps = x.plans[keys]
    found = _run(steps, slots, y, opts, [value for parts in pins.values() for value in parts.values()])
    return [_adopt(x, y, {obj: a[i : i + n] for obj, i, n in spans}) for a in found]


def is_isomorphic(x: CSetInstance, y: CSetInstance) -> Transformation | None:
    """An isomorphism x -> y if one exists.

    Cardinality equality per object is checked first; a monomorphism
    between instances of equal finite cardinalities is automatically an
    isomorphism, so the search can stop at the first monic hit.
    """
    if x.schema != y.schema:
        raise ValueError("isomorphism check requires a shared schema")
    if any(x.card[obj] != y.card[obj] for obj in x.schema.objects):
        return None
    found = homomorphisms(x, y, SearchOptions(monic=True, limit=1))
    return found[0] if found else None
