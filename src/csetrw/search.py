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
order fixed, so is what each step forces and checks: a plan is compiled
once per pattern and pin-key tuple (the pinned (object, part) pairs, not
their values) and kept on the pattern, at most `_PLANS` of them. Its
steps are cut into chunks, each generated once per shape as a Python
loop nest (GrGen's search plans written out as code) whose source holds
only integers and fixed names. A search runs them nested on an explicit
stack, on the host's columns, preimage lists and part counts, the pin
values and used marks as they are; the last yields finished matches.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, groupby, islice
from operator import itemgetter

from .errors import PartOutOfRangeError
from .instance import CSetInstance
from .transform import Transformation


_CHUNK = 8  # steps per generated function: its nested loops stay under CPython's 20 static blocks
_PLANS = 16  # plans kept per pattern


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
    """The pattern half of a search pinned at `keys`, naming no host: (bounds, chunks).

    A slot per pattern part, each object's in a run between `bounds`. A
    step assigns a part: it tries the host preimages of an assigned
    target (kind 1), every host part (2, by count) or a pin's value (3), writes the
    value and the parts that forces, and checks the assigned parts its
    candidates do not imply. A part an earlier pin forced only has the
    value checked. Each `_CHUNK` steps make a chunk: its shape (`_function`),
    the slot of each local, what it reads of the host ((kind, name), kind
    0 a column) and the objects whose used marks it reads.
    """
    schema, column, objects = x.schema, x.column, x.schema.objects
    bounds = list(accumulate((x.card[obj] for obj in objects), initial=0))
    offset = dict(zip(objects, bounds))
    known = [False] * bounds[-1]  # assigned by a pin or an earlier step
    chunks: list[tuple] = []
    local, hosts, marks, shape = {}, {}, {}, []  # the open chunk's: slot -> local (by first use), ...

    def close(*layout: int) -> None:  # a shape, one string (its hash is kept): host and mark counts, last flag, layout
        chunks.append((" ".join(map(str, (len(hosts), len(marks), *layout, *shape))), tuple(local), tuple(hosts), tuple(marks)))

    pinned = ((obj, part, (3, pin)) for pin, (obj, part) in enumerate(keys))
    branched = ((obj, part, None) for obj, part in _branch_order(x) if not known[offset[obj] + part - 1])
    for steps, (obj, part, pin) in enumerate(chain(pinned, branched)):
        slot = offset[obj] + part - 1
        if steps and steps % _CHUNK == 0:
            close(0)
            local, hosts, marks, shape = {}, {}, {}, []
        if known[slot]:  # a step is (candidates, narrowing local or -1 a pin or -2 every part, op count, ops)
            shape += (hosts.setdefault(pin, len(hosts)), -1, 1, 0, -1, -1, local.setdefault(slot, len(local)))
            continue
        target, candidates, narrowed = -1 if pin else -2, pin or (2, obj), None
        for g in () if pin else schema.outgoing(obj):
            d = offset[g.cod] + column[g.name][part - 1] - 1
            if known[d]:
                target, candidates, narrowed = local.setdefault(d, len(local)), (1, g.name), g.name
                break
        known[slot], local[slot] = True, len(local)
        ops = [1, -1, -1, marks.setdefault(obj, len(marks))]  # an op is (write, source local, column, mark or local)
        queue = [(obj, part, slot)]
        for src_obj, src, s in queue:
            for g in schema.outgoing(src_obj):
                if s == slot and g.name == narrowed:
                    continue
                q = column[g.name][src - 1]
                d = offset[g.cod] + q - 1
                col = hosts.setdefault((0, g.name), len(hosts))
                if known[d]:
                    ops += (0, local[s], col, local.setdefault(d, len(local)))
                else:
                    ops += (1, local[s], col, marks.setdefault(g.cod, len(marks)))
                    known[d], local[d] = True, len(local)
                    queue.append((g.cod, q, d))
        shape += (hosts.setdefault(candidates, len(hosts)), target, len(ops) // 4, *ops)
    # the last chunk lists each object's slots: its own local r, or -1 - slot for one an earlier chunk stored
    close(1, len(objects), *chain.from_iterable(
        (end - start, *(local.get(k, -1 - k) for k in range(start, end))) for start, end in zip(bounds, bounds[1:])))
    return bounds, chunks


@lru_cache(maxsize=1024)
def _function(shape: str, monic: bool):
    """The generator function `chunk(a, s, h0.., m0..)` of an all-integer chunk shape, compiled once.

    A `for` per step, each write a local (`l4 = h3[l1 - 1]`), one `if ...
    or ...: continue` on the checks and, under monic, the used marks and
    equal writes of one object; marks set after it, cleared after the
    inner loop. Local r is loaded from and stored in the slot list as a[s[r]].
    The last chunk also takes `new, T, x, y, o0..` and yields each match as its slots,
    then its map made as `_adopt` makes one, on a dict display keyed by the names o0...
    """

    def shown(run: list[int]) -> Iterator[str]:  # an object's slots: local r as lr, a stretch stored before as a slice
        for own, group in groupby(run, (0).__le__):
            stretch = list(group)
            yield from (f"l{r}" for r in stretch) if own else [f"*a[{-1 - stretch[0]}:{-stretch[-1]}]"]

    it = map(int, shape.split())
    n_hosts, n_marks, last = next(it), next(it), next(it)
    runs = [list(shown([next(it) for _ in range(next(it))])) for _ in range(next(it))] if last else []
    head, body, clears, stored, pad = [], [], [], [], "    "

    def ref(r: int) -> str:  # a local, loaded on first use
        if r == len(head) + len(stored):
            head.append(f"    l{r} = a[s[{r}]]")
        return f"l{r}"

    for cand in it:
        source = f"h{cand}" if (at := next(it)) == -1 else f"range(1, h{cand} + 1)" if at == -2 else f"h{cand}[{ref(at)} - 1]"
        new, code, tests, same = [], [], [], {}
        for _ in range(next(it)):
            write, src, col, x = next(it), next(it), next(it), next(it)
            value = "v" if src < 0 else f"h{col}[l{src} - 1]"
            if write:
                stored.append(name := f"l{len(head) + len(stored)}")
                new.append(f"m{x}[{name} - 1]")
                same.setdefault(x, []).append(name)
                code += [f"{pad}    {name} = {value}"] if src >= 0 else []
            else:
                tests.append(f"{value} != {ref(x)}")
        body += [f"{pad}for {stored[-len(new)] if new else 'v'} in {source}:", *code]
        pad += "    "
        if monic and new:
            tests += new + [f"{g[0]} == {g[1]}" if len(g) == 2 else f"len({{{', '.join(g)}}}) < {len(g)}"
                            for g in same.values() if len(g) > 1]
        if tests:
            body.append(f"{pad}if {' or '.join(tests)}: continue")
        if monic and new:
            body.append(f"{pad}{' = '.join(new)} = True")
            clears.append(f"{pad}{' = '.join(new)} = False")
    if last:  # the map, a list display per object, and the match's slots flat, so that matches sort by them
        body += [pad + "t = new(T); t.dom, t.cod, t.comp = x, y, {" + ", ".join(f"o{i}: [{', '.join(run)}]" for i, run in enumerate(runs)) + "}",
                 pad + "yield (" + "".join(e + ", " for e in chain.from_iterable(runs)) + "t,)"]
    else:
        body += [f"{pad}a[s[{name[1:]}]] = {name}" for name in stored] + [pad + "yield"]
    params = ["a", "s", *(f"h{i}" for i in range(n_hosts)), *(f"m{i}" for i in range(n_marks if monic else 0)),
              *(["new", "T", "x", "y"] if last else []), *(f"o{i}" for i in range(len(runs)))]
    space = {"__builtins__": {"len": len, "range": range}}  # the source holds integers and fixed names only
    exec("\n".join([f"def chunk({', '.join(params)}):", *head, *body, *reversed(clears)]), space)
    return space["chunk"]


def _nest(calls: list[tuple]) -> Iterator[tuple]:
    """Run each chunk (function, arguments...) inside the one before, on an explicit stack; yield what the last yields."""
    stack = [calls[0][0](*calls[0][1:])]
    while stack:
        for match in stack[-1]:
            if len(stack) < len(calls):
                function, *arguments = calls[len(stack)]
                stack.append(function(*arguments))
                break
            yield match
        else:
            stack.pop()


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
    if x.schema is not y.schema and x.schema != y.schema:
        raise ValueError("homomorphism search requires a shared schema")
    monic, pins, limit = (opts.monic, opts.initial or {}, opts.limit) if opts else (False, {}, None)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    for obj, parts in pins.items():
        if obj not in x.card:
            raise ValueError(f"pinned object {obj!r} is not in the schema")
        for part in parts:
            if not 1 <= part <= x.card[obj]:
                raise PartOutOfRangeError(f"pinned pattern part {part} outside 1..{x.card[obj]} for {obj!r}")
    keys = tuple((obj, part) for obj, parts in pins.items() for part in parts) if pins else ()
    if (plan := x.plans.get(keys)) is None:
        if len(x.plans) >= _PLANS:  # the oldest plan goes first
            del x.plans[next(iter(x.plans))]
        plan = x.plans[keys] = _compile(x, keys)
    bounds, chunks = plan
    # the host half: each chunk is called on y's columns, preimage lists and part counts, the pin values and used marks
    values = [[v] if v in range(1, y.card[o] + 1) else () for o, ps in pins.items() for v in ps.values()] if pins else ()
    tables = (y.column, y.index, y.card, values)
    used = {obj: [False] * n for obj, n in y.card.items()} if monic else None
    a = [0] * bounds[-1]  # the slot list, through which chunks pass values on
    calls = [(_function(shape, monic), a, s, *[tables[k][n] for k, n in hosts], *([used[o] for o in marks] if monic else ()))
             for shape, s, hosts, marks in chunks]
    calls[-1] += (object.__new__, Transformation, x, y, *x.schema.objects)  # what the last chunk makes maps with
    matches = _nest(calls) if len(calls) > 1 else calls[0][0](*calls[0][1:])
    # a match is its slots by object then part, then its map: matches sort as their components flattened
    return list(map(itemgetter(-1), sorted(islice(matches, limit))))


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
