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
the first matches found in that order, then sorts them. Branching and
propagation run on explicit stacks, so pattern size is not bounded by
the interpreter's recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import PartOutOfRangeError
from .instance import CSetInstance
from .transform import Transformation, _adopt


@dataclass
class SearchOptions:
    monic: bool = False
    initial: dict[str, dict[int, int]] | None = None
    limit: int | None = None


def _branch_order(x: CSetInstance) -> list[tuple[str, int]]:
    """The pattern parts the search branches on, in branching order."""
    schema, column, index = x.schema, x.column, x.index
    seen = {obj: [False] * n for obj, n in x.card.items()}
    order: list[tuple[str, int]] = []
    for root_obj in schema.sources_first:
        root_seen = seen[root_obj]
        for root in range(1, len(root_seen) + 1):
            if root_seen[root - 1]:
                continue
            root_seen[root - 1] = True
            order.append((root_obj, root))
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
                            order.append((gen.dom, q))
                            queue.append((gen.dom, q))
    return order


class _Search:
    def __init__(self, x: CSetInstance, y: CSetInstance, opts: SearchOptions):
        self.x = x
        self.y = y
        self.opts = opts
        self.assign = {obj: [0] * x.card[obj] for obj in x.schema.objects}
        self.used = {obj: [False] * y.card[obj] for obj in x.schema.objects} if opts.monic else None
        self.trail: list[tuple[str, int]] = []
        # per object: (codomain, pattern column, host column, host preimage index)
        self.out = {
            obj: [
                (g.cod, x.column[g.name], y.column[g.name], y.index[g.name])
                for g in x.schema.outgoing(obj)
            ]
            for obj in x.schema.objects
        }
        self.results: list[Transformation] = []

    def _set(self, obj: str, part: int, value: int) -> bool:
        """Assign part -> value and propagate along all outgoing columns."""
        assign, used, out, trail = self.assign, self.used, self.out, self.trail
        pending = [(obj, part, value)]
        while pending:
            obj, part, value = pending.pop()
            current = assign[obj][part - 1]
            if current:
                if current != value:
                    return False
                continue
            if used is not None:
                if used[obj][value - 1]:
                    return False
                used[obj][value - 1] = True
            assign[obj][part - 1] = value
            trail.append((obj, part))
            for cod, x_col, y_col, _ in out[obj]:
                pending.append((cod, x_col[part - 1], y_col[value - 1]))
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            obj, part = self.trail.pop()
            value = self.assign[obj][part - 1]
            self.assign[obj][part - 1] = 0
            if self.used is not None:
                self.used[obj][value - 1] = False

    def _values(self, obj: str, part: int):
        """Candidate host parts, narrowed through the preimage indices.

        Every outgoing column whose forced target is already assigned
        restricts the value to an indexed preimage list; intersecting
        those keeps ascending order, so enumeration stays deterministic.
        """
        narrowed: list[int] | None = None
        for cod, x_col, _, y_index in self.out[obj]:
            target = self.assign[cod][x_col[part - 1] - 1]
            if not target:
                continue
            preimages = y_index[target - 1]
            if narrowed is None:
                narrowed = preimages
            else:
                keep = set(preimages)
                narrowed = [v for v in narrowed if v in keep]
            if not narrowed:
                return []
        if narrowed is None:
            return range(1, self.y.card[obj] + 1)
        return narrowed

    def run(self) -> list[Transformation]:
        limit = self.opts.limit
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be at least 0, got {limit}")
        if self.opts.initial:
            for obj, pins in self.opts.initial.items():
                for part in pins:
                    if not 1 <= part <= self.x.card[obj]:
                        raise PartOutOfRangeError(
                            f"pinned pattern part {part} outside 1..{self.x.card[obj]} for {obj!r}"
                        )
            for obj, pins in self.opts.initial.items():
                for part, value in pins.items():
                    if not (1 <= value <= self.y.card[obj] and self._set(obj, part, value)):
                        return []
        if limit != 0:
            self._branch(_branch_order(self.x))
        self.results.sort(key=lambda t: tuple(tuple(t.comp[o]) for o in self.x.schema.objects))
        return self.results

    def _branch(self, order: list[tuple[str, int]]) -> None:
        """Depth-first enumeration over `order`, stopping at the limit.

        Each frame holds a position in `order`, the iterator over its
        candidates and the trail mark to undo to before the next one.
        """
        assign, limit = self.assign, self.opts.limit
        frames: list[tuple[int, Iterator[int], int]] = []
        pos = 0
        while True:
            while pos < len(order) and assign[order[pos][0]][order[pos][1] - 1]:
                pos += 1
            if pos == len(order):
                comp = {obj: list(col) for obj, col in assign.items()}
                self.results.append(_adopt(self.x, self.y, comp))
                if limit is not None and len(self.results) >= limit:
                    return
            else:
                frames.append((pos, iter(self._values(*order[pos])), len(self.trail)))
            while frames:
                pos, values, mark = frames[-1]
                self._undo(mark)
                value = next(values, 0)
                if not value:
                    frames.pop()
                elif self._set(*order[pos], value):
                    pos += 1
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
    it must be at least 0. A pin on a pattern part outside 1..card raises
    PartOutOfRangeError; a pin to a missing host part finds nothing.
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
