"""Finite C-set instances stored as dense columns, plus the typed-graph view.

Parts of each object are the integers 1..card; every generator is one
total column of codomain part ids. The preimage index is built on first
use and cached on the instance, one generator at a time, so incidence
queries cost O(answer) and instances nobody searches or walks backwards
never pay for it. Search, `incident`, `restrict` and `deletion_closure`
(behind SPO and final pullback complements) read it. A restriction, and a
pushout `colimits` builds with no quotient, share their input's lists,
edited: no list changes once made. Search plans and the classifier are
cached the same way. `restrict` numbers the kept parts swap-last.

`make_instance` copies and validates what enters the library. What
`restrict` and `colimits` build from valid instances by natural maps is
valid, so they make it with `_trusted`, which neither copies nor checks;
the tests validate those. Work that touches every part is done a column
at a time at C level. `_evaluate` is the one path evaluator: it composes
a path as one whole column for `validate_instance`, the typed-graph
readback and the classifier. Walks part by part happen only where a
violation is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, filterfalse

from .errors import InvalidInstanceError, PartOutOfRangeError
from .schema import SchemaPath, SchemaPresentation, graph_schema

GRAPH = graph_schema()


@dataclass(frozen=True)
class ColumnLengthViolation:
    generator: str
    expected: int
    actual: int

    def __str__(self):
        return f"column {self.generator!r} has {self.actual} entries, expected {self.expected}"


@dataclass(frozen=True)
class ColumnRangeViolation:
    generator: str
    part: int
    value: int
    bound: int

    def __str__(self):
        return f"column {self.generator!r} sends part {self.part} to {self.value}, outside 1..{self.bound}"


@dataclass(frozen=True)
class EquationViolation:
    equation: int
    part: int
    lhs: int
    rhs: int

    def __str__(self):
        return f"equation {self.equation} fails at part {self.part}: {self.lhs} != {self.rhs}"


@dataclass(frozen=True)
class CardViolation:
    object: str
    value: int

    def __str__(self):
        return f"cardinality of {self.object!r} is {self.value}, expected a natural number"


@dataclass
class CSetInstance:
    schema: SchemaPresentation
    card: dict[str, int]
    column: dict[str, list[int]]

    @cached_property
    def index(self) -> dict[str, list[list[int]]]:
        """Per generator, the ascending preimage list of each codomain part.

        Each generator's lists are built on its first lookup.
        """
        return build_index(self)

    @cached_property
    def plans(self) -> dict:
        """Search plans with self as the pattern, per pin-key tuple; `search` fills it."""
        return {}

    @cached_property
    def classifier(self):
        """The partial map classifier T(self), a `colimits.Classifier`."""
        from .colimits import Classifier

        return Classifier(self)

    def parts(self, obj: str) -> range:
        return range(1, self.card[obj] + 1)

    def apply(self, gen: str, part: int) -> int:
        return self.column[gen][part - 1]

    def apply_path(self, path: SchemaPath, part: int) -> int:
        for name in path.components:
            part = self.column[name][part - 1]
        return part

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, CSetInstance):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.card == other.card
            and self.column == other.column
        )

    def __repr__(self):
        cards = ", ".join(f"{o}:{self.card[o]}" for o in self.schema.objects)
        return f"CSetInstance({cards})"


def validate_instance(x: CSetInstance) -> list:
    """Totality, codomain bounds and path equations, a column at a time.

    Returns violation records; empty means the instance is valid. They
    come in the order of a part-by-part walk: cardinalities, then each
    generator's length or out-of-range entries, then each equation's
    failing parts. Only a column or equation found broken is walked part
    by part.
    """
    out: list = [CardViolation(o, x.card[o]) for o in x.schema.objects if x.card[o] < 0]
    broken: set[str] = set()
    for gen in x.schema.generators:
        col, bound = x.column[gen.name], x.card[gen.cod]
        if len(col) != x.card[gen.dom]:
            out.append(ColumnLengthViolation(gen.name, x.card[gen.dom], len(col)))
            broken.add(gen.name)
        elif col and (min(col) < 1 or max(col) > bound):
            out.extend(
                ColumnRangeViolation(gen.name, part, v, bound)
                for part, v in enumerate(col, start=1)
                if not 1 <= v <= bound
            )
            broken.add(gen.name)
    shifted: dict[str, list[int]] = {}  # a column behind a 0, indexed by part id
    for eq_idx, (lhs, rhs) in enumerate(x.schema.equations):
        if broken and broken.intersection(lhs.components + rhs.components):
            continue
        a, b = _evaluate(x, lhs, shifted), _evaluate(x, rhs, shifted)
        if a != b:
            out.extend(
                EquationViolation(eq_idx, part, u, v)
                for part, (u, v) in enumerate(zip(a, b), start=1)
                if u != v
            )
    return out


def _evaluate(x: CSetInstance, path: SchemaPath, shifted: dict[str, list[int]]) -> list[int]:
    """A path's value at each part of its source, one composed column; a 0 entry stays 0."""
    if not path.components:
        return list(range(1, x.card[path.source] + 1))
    values = x.column[path.components[0]]
    for name in path.components[1:]:
        if name not in shifted:
            shifted[name] = [0] + x.column[name]
        values = list(map(shifted[name].__getitem__, values))
    return values


class _PreimageIndex(dict):
    """Per generator name, x's preimage lists, made on first lookup: from what a step handed on, if anything."""

    def __init__(self, x: CSetInstance, handed=()):
        super().__init__()
        self.schema, self.card, self.column = x.schema, x.card, x.column  # not x: no cycle
        self.handed = dict(handed)

    def __missing__(self, name: str) -> list[list[int]]:
        if name in self.handed:
            self[name] = buckets = self.handed.pop(name).whole()
            return buckets
        buckets: list[list[int]] = [[] for _ in range(self.card[self.schema.generator(name).cod])]
        for part, value in enumerate(self.column[name], start=1):
            buckets[value - 1].append(part)
        self[name] = buckets
        return buckets

    def lists(self, name: str):  # self[name], or a handed `_Patched` as it is: both give part t's list at [t - 1]
        return self.handed[name] if name in self.handed else self[name]


def build_index(x: CSetInstance) -> dict[str, list[list[int]]]:
    """x's preimage index; a generator's lists are built when it is first looked up."""
    return _PreimageIndex(x)


class _Patched(dict):
    """New lists at a few 0-based slots over a shared outer list `base`, cut to n lists; slots past it are all here."""

    __slots__ = ("base", "n")

    def __missing__(self, i: int) -> list[int]:
        return self.base[i]

    def whole(self) -> list[list[int]]:
        out = self.base[: self.n] + [[]] * (self.n - len(self.base))  # each slot past base is patched
        for i in filter(self.n.__gt__, self):
            out[i] = self[i]
        return out


def _patched(lists, n: int, moves: dict[int, int], left: dict[int, int], joined: dict[int, int]) -> _Patched:
    """An input's lists (a list or a `_Patched`) edited into an output's n lists, in time for the edits.

    The list at each old codomain id in `moves` goes to its new id, and one at a new id past the input's starts
    empty; each old domain id in `left` leaves the list it names, each part in `joined` joins the one it names.
    Edited lists are new and sorted, others shared; patches are copied until past len(base) // 32 + 4.
    """
    patched = isinstance(lists, _Patched)
    start = lists.n if patched else len(lists)
    if patched and n == start and not (moves or left or joined):
        return lists
    keep = patched and len(lists) <= len(lists.base) // 32 + 4
    out = _Patched(lists if keep else ())
    out.base, out.n = lists.base if keep else lists.whole() if patched else lists, n
    out.update({slot - 1: lists[t - 1] for t, slot in moves.items()})
    out.update(dict.fromkeys(range(start, n), []))
    touched = dict.fromkeys(left.values(), ())
    for p, t in joined.items():
        touched[t] = (*touched.get(t, ()), p)
    for t, ps in touched.items():
        out[t - 1] = sorted([*filterfalse(left.__contains__, out[t - 1]), *ps])
    return out


def make_instance(schema: SchemaPresentation, card: dict[str, int], columns: dict[str, list[int]]) -> CSetInstance:
    """Validated instance; raises InvalidInstanceError."""
    full_card = {o: int(card.get(o, 0)) for o in schema.objects}
    full_cols = {g.name: list(columns.get(g.name, ())) for g in schema.generators}
    unknown = set(card) - set(schema.objects)
    unknown |= set(columns) - {g.name for g in schema.generators}
    if unknown:
        raise InvalidInstanceError([f"unknown name {n!r} for this schema" for n in sorted(unknown)])
    inst = CSetInstance(schema, full_card, full_cols)
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


_trusted = CSetInstance  # (schema, card, columns), kept as they are and unchecked

_NATURALS = list(range(1025))


def _naturals(n: int) -> list[int]:
    """One shared list starting 0, 1, ..., n, to slice, never change: slices reuse its ints."""
    global _NATURALS
    naturals = _NATURALS
    if len(naturals) <= n:
        naturals = _NATURALS = list(range(2 * n + 1))
    return naturals


def empty_instance(schema: SchemaPresentation) -> CSetInstance:
    return make_instance(schema, {}, {})


def incident(x: CSetInstance, gen: str, part: int) -> list[int]:
    """Sorted preimage {p : column[gen][p] = part}."""
    g = x.schema.generator(gen)
    if not 1 <= part <= x.card[g.cod]:
        raise PartOutOfRangeError(f"part {part} outside 1..{x.card[g.cod]} for {g.cod!r}")
    return list(x.index[gen][part - 1])


def restrict(x: CSetInstance, kept: dict[str, set[int]]):
    """Column-closed subinstance on `kept` parts plus its inclusion map.

    Parts are numbered as deleting the others in place would number
    them: highest first, each freed slot takes the current last part.
    Raises ValueError, before anything is built, if `kept` names an
    object not in the schema or is not closed under the columns, and
    PartOutOfRangeError if it names a part that does not exist.
    """
    for obj in kept:
        if obj not in x.card:
            raise ValueError(f"kept object {obj!r} is not in the schema")
    removed = {}
    for obj in x.schema.objects:
        n, keep = x.card[obj], kept.get(obj, set())
        removed[obj] = set(range(1, n + 1)) - keep
        if len(keep) != n - len(removed[obj]):
            raise PartOutOfRangeError(f"kept parts of {obj!r} fall outside 1..{n}")
    return _restrict_removing(x, removed)[:2]


def _restrict_removing(x: CSetInstance, removed: dict[str, set[int]], dangling: list | None = None):
    """`restrict` given the parts to drop, each in 1..card.

    For callers that already hold the deleted parts. Returns the
    subinstance, its inclusion and, per object, the kept parts that
    moved as {old id: new id}; every other kept part keeps its id. Each
    column is copied, and x's preimage lists give its entries to patch
    and the kept parts that point at dropped ones, as (generator, part)
    pairs in column order. If there are any, nothing is built: they are
    appended to `dangling` and None is returned or, without a `dangling`
    list, ValueError is raised. The subinstance is handed x's lists.
    """
    from .transform import _adopt

    card: dict[str, int] = {}
    moved: dict[str, dict[int, int]] = {}
    slots: dict[str, list[int]] = {}
    for obj in x.schema.objects:
        n, holder = x.card[obj], {}  # holder: slot -> old part, where they differ
        # a removed part has not moved yet: only kept parts above it have
        for part in sorted(removed.get(obj, ()), reverse=True):
            last = holder.pop(n, n)
            n -= 1
            if last != part:
                holder[part] = last
        card[obj], moved[obj] = n, {old: slot for slot, old in holder.items()}
        slots[obj] = _naturals(n)[1 : n + 1]
        for slot, old in holder.items():
            slots[obj][slot - 1] = old
    columns: dict[str, list[int]] = {}
    found: list[tuple[str, int]] = []
    for gen in x.schema.generators:
        col, gone, cod_moved = x.column[gen.name], removed.get(gen.cod, set()), moved[gen.cod]
        dropped, dom_moved = removed.get(gen.dom, set()), moved[gen.dom]
        sub_col = col[: card[gen.dom]]
        for old, slot in dom_moved.items():
            sub_col[slot - 1] = col[old - 1]
        if gone or cod_moved:
            lists = x.index.lists(gen.name)
            for p in sorted(p for t in (*gone, *cod_moved) for p in lists[t - 1] if p not in dropped):
                if col[p - 1] in gone:
                    found.append((gen.name, p))
                else:
                    sub_col[dom_moved.get(p, p) - 1] = cod_moved[col[p - 1]]
        columns[gen.name] = sub_col
    if found:
        if dangling is None:
            raise ValueError(f"kept parts are not closed under column {found[0][0]!r}")
        dangling += found
        return None
    sub, handed = _trusted(x.schema, card, columns), {}
    for name, lists in {**x.index.handed, **x.index}.items():  # what x has made or been handed
        gen = x.schema.generator(name)
        col, gone, cod_moved = x.column[name], removed.get(gen.cod, ()), moved[gen.cod]
        ends = (*removed.get(gen.dom, ()), *moved[gen.dom])
        left = {p: cod_moved.get(t, t) for p in ends for t in [col[p - 1]] if t not in gone}
        joined = {slot: columns[name][slot - 1] for slot in moved[gen.dom].values()}
        handed[name] = _patched(lists, card[gen.cod], cod_moved, left, joined)
    sub.__dict__["index"] = _PreimageIndex(sub, handed)
    return sub, _adopt(sub, x, slots), moved


def deletion_closure(x: CSetInstance, core: dict[str, set[int]]) -> dict[str, set[int]]:
    """The parts of x from which some path of columns reaches `core`.

    One worklist expands each part that enters the closure once, through
    the lists of the generators into its object, the only ones indexed.
    Raises PartOutOfRangeError for a core part outside 1..card.
    """
    schema, index = x.schema, x.index
    closed = {obj: set(core.get(obj, ())) for obj in schema.objects}
    for obj, parts in closed.items():
        if parts and not 1 <= min(parts) <= max(parts) <= x.card[obj]:
            bad = min(parts) if min(parts) < 1 else max(parts)
            raise PartOutOfRangeError(f"part {bad} outside 1..{x.card[obj]} for {obj!r}")
    work = [(obj, part) for obj, parts in closed.items() for part in parts]
    while work:
        obj, part = work.pop()
        for gen in schema.incoming(obj):
            seen = closed[gen.dom]
            for pre in index.lists(gen.name)[part - 1]:
                if pre not in seen:
                    seen.add(pre)
                    work.append((gen.dom, pre))
    return closed


def schema_graph(schema: SchemaPresentation) -> CSetInstance:
    """Underlying graph of a schema: objects as vertices, generators as edges."""
    return make_instance(
        GRAPH,
        {"V": len(schema.objects), "E": len(schema.generators)},
        {
            "src": [schema.obj_index(g.dom) + 1 for g in schema.generators],
            "tgt": [schema.obj_index(g.cod) + 1 for g in schema.generators],
        },
    )


@dataclass
class TypedGraph:
    """A graph together with a homomorphism into a schema's underlying graph."""

    graph: CSetInstance
    typing: "Transformation"
    schema: SchemaPresentation

    def vertex_type(self, v: int) -> str:
        return self.schema.objects[self.typing.comp["V"][v - 1] - 1]

    def edge_type(self, e: int) -> str:
        return self.schema.generators[self.typing.comp["E"][e - 1] - 1].name


def elements(x: CSetInstance) -> TypedGraph:
    """Category of elements: one vertex per part, one edge per column entry."""
    from .transform import Transformation

    starts = list(accumulate((x.card[obj] for obj in x.schema.objects), initial=0))
    offset, total = dict(zip(x.schema.objects, starts)), starts[-1]
    src: list[int] = []
    tgt: list[int] = []
    edge_types: list[int] = []
    for gi, gen in enumerate(x.schema.generators, start=1):
        n = x.card[gen.dom]
        src += range(offset[gen.dom] + 1, offset[gen.dom] + n + 1)
        tgt += map(offset[gen.cod].__add__, x.column[gen.name])
        edge_types += [gi] * n
    graph = make_instance(GRAPH, {"V": total, "E": len(src)}, {"src": src, "tgt": tgt})
    vertex_types = [i for i, obj in enumerate(x.schema.objects, start=1) for _ in x.parts(obj)]
    typing = Transformation(graph, schema_graph(x.schema), {"V": vertex_types, "E": edge_types})
    return TypedGraph(graph, typing, x.schema)


@dataclass(frozen=True)
class MissingEdge:
    generator: str
    vertex: int

    def __str__(self):
        return f"vertex {self.vertex} has no outgoing {self.generator!r} edge"


@dataclass(frozen=True)
class MultipleEdges:
    generator: str
    vertex: int

    def __str__(self):
        return f"vertex {self.vertex} has more than one outgoing {self.generator!r} edge"


@dataclass(frozen=True)
class EquationFailure:
    equation: int
    vertex: int

    def __str__(self):
        return f"equation {self.equation} fails at vertex {self.vertex}"


def check_discrete_opfibration(t: TypedGraph):
    """Decide whether a typed graph is the element graph of a C-set.

    Every vertex must have exactly one outgoing edge per schema generator
    applicable to its type, and the reconstructed columns must satisfy the
    path equations. Returns the reconstructed CSetInstance on success and
    the list of violations otherwise: edge defects by generator, then
    equation failures by equation, each by vertex. A missing or ambiguous
    edge is a 0 in its column, which `_evaluate` carries along a path, so
    an equation is not checked where its path runs through such a defect.
    """
    from .transform import _check_components

    _check_components(t.typing)
    vertex_type = [0] + t.typing.comp["V"]
    for end in ("src", "tgt"):  # each end's type, as one composed column per side
        ends = list(map(vertex_type.__getitem__, t.typing.dom.column[end]))
        if ends != list(map(([0] + t.typing.cod.column[end]).__getitem__, t.typing.comp["E"])):
            raise ValueError("typed graph is not well-typed over its schema")
    schema, graph = t.schema, t.graph
    by_type: dict[str, list[int]] = {obj: [] for obj in schema.objects}
    for v, obj in enumerate(t.typing.comp["V"], start=1):
        by_type[schema.objects[obj - 1]].append(v)
    local = [0] * (graph.card["V"] + 1)  # each vertex's part id within its type
    for vs in by_type.values():
        for i, v in enumerate(vs, start=1):
            local[v] = i
    # one column per generator in those ids: 0 until an edge is seen, -1 after two
    columns = {gen.name: [0] * len(by_type[gen.dom]) for gen in schema.generators}
    for v, w, gen in zip(graph.column["src"], graph.column["tgt"], t.typing.comp["E"]):
        col, i = columns[schema.generators[gen - 1].name], local[v] - 1
        col[i] = -1 if col[i] else local[w]
    violations: list = []
    for gen in schema.generators:
        col = columns[gen.name]
        if col and min(col) < 1:  # only a column with a defect is walked
            for i, w in enumerate(col):
                if w < 1:
                    v = by_type[gen.dom][i]
                    violations.append(MultipleEdges(gen.name, v) if w else MissingEdge(gen.name, v))
                    col[i] = 0
    card = {obj: len(vs) for obj, vs in by_type.items()}
    x, shifted = CSetInstance(schema, card, columns), {}  # may hold 0s, so not `_trusted`
    for eq_idx, (lhs, rhs) in enumerate(schema.equations):
        a, b = _evaluate(x, lhs, shifted), _evaluate(x, rhs, shifted)
        violations.extend(
            EquationFailure(eq_idx, v) for v, p, q in zip(by_type[lhs.source], a, b) if p and q and p != q
        )
    return violations or _trusted(schema, card, columns)
