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
their values) and kept on the pattern. Its steps are cut into chunks,
each generated once per shape as a Python loop nest (GrGen's search
plans written out as code) whose source holds only integers and fixed
names; they run nested on an explicit stack, not by recursion.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, islice

from .errors import PartOutOfRangeError
from .instance import CSetInstance
from .transform import Transformation, _adopt


_CHUNK = 8  # steps per generated function: its nested loops stay under CPython's 20 static blocks


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
    target (kind 1), all host parts (2) or a pin's value (3), writes the
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

    def close(*layout: int) -> None:  # a shape starts: host and mark counts, whole-plan flag, layout
        chunks.append(((len(hosts), len(marks), *layout, *shape), tuple(local), tuple(hosts), tuple(marks)))

    pinned = ((obj, part, (3, pin)) for pin, (obj, part) in enumerate(keys))
    branched = ((obj, part, None) for obj, part in _branch_order(x) if not known[offset[obj] + part - 1])
    for steps, (obj, part, pin) in enumerate(chain(pinned, branched)):
        slot = offset[obj] + part - 1
        if steps and steps % _CHUNK == 0:
            close(0)
            local, hosts, marks, shape = {}, {}, {}, []
        if known[slot]:  # a step is (candidates, narrowing local or -1, op count, ops)
            shape += (hosts.setdefault(pin, len(hosts)), -1, 1, 0, -1, -1, local.setdefault(slot, len(local)))
            continue
        target, candidates, narrowed = -1, pin or (2, obj), None
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
    if chunks:  # the last of several chunks stores its slots too
        close(0)
    else:  # a whole plan in one chunk yields its locals, by object
        close(1, len(objects), *chain.from_iterable(
            (end - start, *map(local.get, range(start, end))) for start, end in zip(bounds, bounds[1:])))
    return bounds, chunks


@lru_cache(maxsize=1024)
def _function(shape: tuple, monic: bool):
    """The generator function `chunk(a, s, h0.., m0..)` of an all-integer chunk shape, compiled once.

    A `for` per step, each write a local (`l4 = h3[l1 - 1]`), one `if ...
    or ...: continue` on the checks and, under monic, the used marks and
    equal writes of one object; marks set after it, cleared after the
    inner loop. Local r is loaded from and stored in the slot list as a[s[r]].
    """
    it = iter(shape)
    n_hosts, n_marks, whole = next(it), next(it), next(it)
    runs = [[f"l{next(it)}" for _ in range(next(it))] for _ in range(next(it))] if whole else []
    head, body, clears, stored, pad = [], [], [], [], "    "

    def ref(r: int) -> str:  # a local, loaded on first use
        if r == len(head) + len(stored):
            head.append(f"    l{r} = a[s[{r}]]")
        return f"l{r}"

    for cand in it:
        source = f"h{cand}" if (at := next(it)) < 0 else f"h{cand}[{ref(at)} - 1]"
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
    if whole:
        body.append(pad + "yield (" + "".join("[" + ", ".join(run) + "], " for run in runs) + ")")
    else:
        body += [f"{pad}a[s[{name[1:]}]] = {name}" for name in stored] + [pad + "yield"]
    params = ["a", "s", *(f"h{i}" for i in range(n_hosts)), *(f"m{i}" for i in range(n_marks if monic else 0))]
    space = {"__builtins__": {"len": len}}  # the source holds integers and fixed names only
    exec("\n".join([f"def chunk({', '.join(params)}):", *head, *body, *reversed(clears)]), space)
    return space["chunk"]


def _nest(chunks: list) -> Iterator[None]:
    """Run each chunk inside the one before, on an explicit stack; yield at each match of the last."""
    stack = [chunks[0]()]
    while stack:
        for _ in stack[-1]:
            if len(stack) < len(chunks):
                stack.append(chunks[len(stack)]())
                break
            yield
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
    bounds, chunks = x.plans[keys]
    # the host half: bind each chunk to y's columns, index, parts, pin values and used marks
    every = {obj: range(1, n + 1) for obj, n in y.card.items()}
    tables = (y.column, y.index, every, [[v] if v in every[obj] else () for obj, ps in pins.items() for v in ps.values()])
    used = {obj: [False] * n for obj, n in y.card.items()} if opts.monic else None
    a = [0] * bounds[-1]  # the slot list, through which chunks pass values on
    bound = [partial(_function(shape, opts.monic), a, s, *[tables[k][n] for k, n in hosts], *(used[o] for o in marks if used))
             for shape, s, hosts, marks in chunks]
    rows = bound[0]() if len(bound) == 1 else (tuple(a[i:j] for i, j in zip(bounds, bounds[1:])) for _ in _nest(bound))
    # a row holds one list per object, each of fixed length: rows sort as their components flattened
    return [_adopt(x, y, dict(zip(x.schema.objects, row))) for row in sorted(islice(rows, opts.limit))]


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
