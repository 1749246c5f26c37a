"""Backtracking search for homomorphisms, monomorphisms and isomorphisms.

The search treats parts of the pattern as variables and parts of the host
as domain values. Assigning a part immediately forces the images of all
its column successors, so a single branching decision fixes whole orbits
and conflicts surface as early as possible.

The branching order is fixed once per search, from the pattern alone.
Each connected component of the pattern starts at a part of the most
source-ward object (`SchemaPresentation.sources_first`: a triangle before
its edges, an edge before its vertices) and grows breadth-first along
columns and preimage indices. A part reached along a column is forced by
its predecessor, so only the roots and the parts reached through a
preimage index are branched on, and each of the latter draws its
candidates from the host's preimage index of its already assigned
target. Candidates come in ascending order and results are sorted, so
the result list does not depend on the branching order; `limit` keeps
the first matches found in that order, then sorts them. With the order
fixed, so is what each branching step forces and checks: after the pins,
each search compiles its order into a plan of straight-line steps, run
on an explicit stack, so pattern size is not bounded by the
interpreter's recursion limit.
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


class _Search:
    def __init__(self, x: CSetInstance, y: CSetInstance, opts: SearchOptions):
        self.x, self.y, self.opts = x, y, opts
        # a slot per pattern part, each object's in a run, then one for the value tried
        objects = x.schema.objects
        self.offset = dict(zip(objects, accumulate((x.card[obj] for obj in objects), initial=0)))
        self.assign = [0] * (sum(x.card[obj] for obj in objects) + 1)
        self.known = [False] * len(self.assign)  # assigned by a pin or an earlier step
        self.used = {obj: [False] * y.card[obj] for obj in objects} if opts.monic else None
        self.results: list[list[int]] = []

    def _step(self, obj: str, part: int) -> tuple:
        """The fixed step that branches on an unassigned part; marks what it assigns.

        A step is its candidates, (slot of the first assigned target, host
        index) or (None, all host parts); the writes (source slot, host
        column, slot, used marks) of its part, from the value tried, and
        of the parts that forces, breadth-first; and the checks (source
        slot, host column, slot) on assigned parts its candidates do not imply.
        """
        x, y, offset, known, used = self.x, self.y, self.offset, self.known, self.used
        slot, every = offset[obj] + part - 1, range(1, y.card[obj] + 1)
        narrowed, candidates = None, (None, every)
        for g in x.schema.outgoing(obj):
            d = offset[g.cod] + x.column[g.name][part - 1] - 1
            if known[d]:
                narrowed, candidates = g.name, (d, y.index[g.name])
                break
        known[slot] = True
        writes, checks = [(-1, every, slot, used and used[obj])], []
        queue = [(obj, part, slot)]
        for src_obj, src, s in queue:
            for g in x.schema.outgoing(src_obj):
                if s == slot and g.name == narrowed:
                    continue
                q = x.column[g.name][src - 1]
                d = offset[g.cod] + q - 1
                if known[d]:
                    checks.append((s, y.column[g.name], d))
                else:
                    known[d] = True
                    writes.append((s, y.column[g.name], d, used and used[g.cod]))
                    queue.append((g.cod, q, d))
        return *candidates, writes, checks

    def _try(self, step: tuple, value: int) -> bool:
        """Run the step's writes from `value`, then its checks."""
        _, _, writes, checks = step
        assign = self.assign
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

    def _clear(self, step: tuple) -> None:
        assign = self.assign
        for _, _, d, mark in step[2]:
            v = assign[d]
            if v:
                mark[v - 1] = False
                assign[d] = 0

    def run(self) -> list[Transformation]:
        limit = self.opts.limit
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be at least 0, got {limit}")
        x, y, offset, assign = self.x, self.y, self.offset, self.assign
        pins = self.opts.initial or {}
        for obj, parts in pins.items():
            if obj not in offset:
                raise ValueError(f"pinned object {obj!r} is not in the schema")
            for part in parts:
                if not 1 <= part <= x.card[obj]:
                    raise PartOutOfRangeError(
                        f"pinned pattern part {part} outside 1..{x.card[obj]} for {obj!r}"
                    )
        # each pin is a one-candidate step, or a check if an earlier pin forced its part
        for obj, parts in pins.items():
            for part, value in parts.items():
                slot = offset[obj] + part - 1
                if self.known[slot]:
                    ok = assign[slot] == value
                else:
                    step = d, index, _, _ = self._step(obj, part)
                    ok = value in (index if d is None else index[assign[d] - 1]) and self._try(step, value)
                if not ok:
                    return []
        if limit != 0:
            known = self.known
            self._branch([self._step(o, p) for o, p in _branch_order(x) if not known[offset[o] + p - 1]])
        # comparing flat slot lists compares components by object, then part
        self.results.sort()
        spans = [(obj, offset[obj], x.card[obj]) for obj in x.schema.objects]
        return [_adopt(x, y, {obj: a[i : i + n] for obj, i, n in spans}) for a in self.results]

    def _branch(self, steps: list[tuple]) -> None:
        """Depth-first enumeration over the steps, stopping at the limit.

        Under monic a step clears its slots and marks before each try and
        when it runs out. Without monic nothing is cleared: a step writes
        its slots before reading them, and reads earlier steps' slots.
        """
        assign, results, limit = self.assign, self.results, self.opts.limit
        monic, try_, clear = self.used is not None, self._try, self._clear
        tried: list[Iterator[int]] = [iter(())] * len(steps)  # per step, its candidates left
        depth = 0  # steps entered
        while True:
            if depth == len(steps):
                results.append(assign[:-1])
                if limit is not None and len(results) >= limit:
                    return
            else:
                d, index, _, _ = steps[depth]
                tried[depth] = iter(index if d is None else index[assign[d] - 1])
                depth += 1
            while depth:
                step = steps[depth - 1]
                if monic:
                    clear(step)
                for value in tried[depth - 1]:
                    if try_(step, value):
                        break
                    if monic:
                        clear(step)
                else:
                    depth -= 1
                    continue
                break
            else:
                return


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
    return _Search(x, y, opts or SearchOptions()).run()


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
