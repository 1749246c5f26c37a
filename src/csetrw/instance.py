"""Finite C-set instances stored as dense columns, plus the typed-graph view.

Parts of each object are the integers 1..card; every generator is one
total column of codomain part ids. The preimage index is built on first
use and cached on the instance, so incidence queries cost O(answer) and
instances nobody searches or walks backwards never pay for it.
`restrict` is the one subinstance constructor; it numbers the kept parts
swap-last, as deletion in place would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        """Per generator, the ascending preimage list of each codomain part."""
        return build_index(self)

    def parts(self, obj: str) -> range:
        return range(1, self.card[obj] + 1)

    def apply(self, gen: str, part: int) -> int:
        return self.column[gen][part - 1]

    def apply_path(self, path: SchemaPath, part: int) -> int:
        for name in path.components:
            part = self.column[name][part - 1]
        return part

    def __eq__(self, other):
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


def _normalize(schema: SchemaPresentation, card, columns) -> tuple[dict, dict]:
    full_card = {o: int(card.get(o, 0)) for o in schema.objects}
    full_cols = {g.name: [int(v) for v in columns.get(g.name, [])] for g in schema.generators}
    return full_card, full_cols


def validate_instance(x: CSetInstance) -> list:
    """Totality, codomain bounds and pointwise path equations.

    Returns violation records; empty means the instance is valid.
    """
    out: list = []
    for obj in x.schema.objects:
        if x.card[obj] < 0:
            out.append(CardViolation(obj, x.card[obj]))
    broken: set[str] = set()
    for gen in x.schema.generators:
        col = x.column[gen.name]
        if len(col) != x.card[gen.dom]:
            out.append(ColumnLengthViolation(gen.name, x.card[gen.dom], len(col)))
            broken.add(gen.name)
            continue
        bound = x.card[gen.cod]
        for i, v in enumerate(col):
            if not 1 <= v <= bound:
                out.append(ColumnRangeViolation(gen.name, i + 1, v, bound))
                broken.add(gen.name)
    for eq_idx, (lhs, rhs) in enumerate(x.schema.equations):
        if broken.intersection(lhs.components) or broken.intersection(rhs.components):
            continue
        for part in x.parts(lhs.source):
            a = x.apply_path(lhs, part)
            b = x.apply_path(rhs, part)
            if a != b:
                out.append(EquationViolation(eq_idx, part, a, b))
    return out


def build_index(x: CSetInstance) -> dict[str, list[list[int]]]:
    index: dict[str, list[list[int]]] = {}
    for gen in x.schema.generators:
        buckets: list[list[int]] = [[] for _ in range(x.card[gen.cod])]
        for part, value in enumerate(x.column[gen.name], start=1):
            buckets[value - 1].append(part)
        index[gen.name] = buckets
    return index


def make_instance(schema: SchemaPresentation, card: dict[str, int], columns: dict[str, list[int]]) -> CSetInstance:
    """Validated instance; raises InvalidInstanceError."""
    full_card, full_cols = _normalize(schema, card, columns)
    unknown = set(card) - set(schema.objects)
    unknown |= set(columns) - {g.name for g in schema.generators}
    if unknown:
        raise InvalidInstanceError([f"unknown name {n!r} for this schema" for n in sorted(unknown)])
    inst = CSetInstance(schema, full_card, full_cols)
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


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
    Raises ValueError if `kept` is not closed under the columns and
    PartOutOfRangeError if it names a part that does not exist.
    """
    removed = {}
    for obj in x.schema.objects:
        n, keep = x.card[obj], kept.get(obj, set())
        removed[obj] = set(range(1, n + 1)) - keep
        if len(keep) != n - len(removed[obj]):
            raise PartOutOfRangeError(f"kept parts of {obj!r} fall outside 1..{n}")
    return _restrict_removing(x, removed)


def _restrict_removing(x: CSetInstance, removed: dict[str, set[int]]):
    """`restrict` given the parts to drop, each in 1..card.

    For callers that already hold the deleted parts, so no set the size
    of `x` is built to find them again.
    """
    from .transform import Transformation

    slots: dict[str, list[int]] = {}
    renumber: dict[str, list[int]] = {}
    for obj in x.schema.objects:
        n, gone = x.card[obj], removed.get(obj, set())
        order = list(range(1, n + 1))
        new = list(order)
        # a removed part has not moved yet: only kept parts above it have
        for part in sorted(gone, reverse=True):
            last = order.pop()
            new[part - 1] = 0
            if last != part:
                order[part - 1] = last
                new[last - 1] = part
        slots[obj], renumber[obj] = order, new
    columns: dict[str, list[int]] = {}
    for gen in x.schema.generators:
        col, cod_new = x.column[gen.name], renumber[gen.cod]
        sub_col = [cod_new[col[old - 1] - 1] for old in slots[gen.dom]]
        if 0 in sub_col:
            raise ValueError(f"kept parts are not closed under column {gen.name!r}")
        columns[gen.name] = sub_col
    sub = make_instance(x.schema, {obj: len(s) for obj, s in slots.items()}, columns)
    return sub, Transformation(sub, x, slots)


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

    offset: dict[str, int] = {}
    total = 0
    for obj in x.schema.objects:
        offset[obj] = total
        total += x.card[obj]
    src: list[int] = []
    tgt: list[int] = []
    edge_types: list[int] = []
    for gi, gen in enumerate(x.schema.generators):
        for part in x.parts(gen.dom):
            src.append(offset[gen.dom] + part)
            tgt.append(offset[gen.cod] + x.column[gen.name][part - 1])
            edge_types.append(gi + 1)
    graph = make_instance(GRAPH, {"V": total, "E": len(src)}, {"src": src, "tgt": tgt})
    vertex_types = [
        x.schema.obj_index(obj) + 1 for obj in x.schema.objects for _ in x.parts(obj)
    ]
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


def validate_typed_graph(t: TypedGraph) -> list:
    """Well-typedness of the typing morphism (its two naturality squares)."""
    from .transform import is_natural

    return is_natural(t.typing)


def check_discrete_opfibration(t: TypedGraph):
    """Decide whether a typed graph is the element graph of a C-set.

    Every vertex must have exactly one outgoing edge per schema generator
    applicable to its type, and the reconstructed columns must satisfy the
    path equations. Returns the reconstructed CSetInstance on success and
    the list of violations otherwise. Equations whose evaluation runs
    through a missing or ambiguous edge are skipped, since those defects
    are already reported.
    """
    if validate_typed_graph(t):
        raise ValueError("typed graph is not well-typed over its schema")
    schema = t.schema
    graph = t.graph
    by_type: dict[str, list[int]] = {obj: [] for obj in schema.objects}
    for v in graph.parts("V"):
        by_type[t.vertex_type(v)].append(v)
    local = {obj: {v: i + 1 for i, v in enumerate(vs)} for obj, vs in by_type.items()}
    # chosen[gen][vertex] = target vertex, only where exactly one edge exists
    chosen: dict[str, dict[int, int]] = {g.name: {} for g in schema.generators}
    violations: list = []
    outgoing: dict[tuple[int, str], list[int]] = {}
    for e in graph.parts("E"):
        key = (graph.apply("src", e), t.edge_type(e))
        outgoing.setdefault(key, []).append(e)
    for gen in schema.generators:
        for v in by_type[gen.dom]:
            edges = outgoing.get((v, gen.name), [])
            if not edges:
                violations.append(MissingEdge(gen.name, v))
            elif len(edges) > 1:
                violations.append(MultipleEdges(gen.name, v))
            else:
                chosen[gen.name][v] = graph.apply("tgt", edges[0])

    def walk(path: SchemaPath, vertex: int) -> int | None:
        for name in path.components:
            nxt = chosen[name].get(vertex)
            if nxt is None:
                return None
            vertex = nxt
        return vertex

    for eq_idx, (lhs, rhs) in enumerate(schema.equations):
        for v in by_type[lhs.source]:
            a = walk(lhs, v)
            b = walk(rhs, v)
            if a is not None and b is not None and a != b:
                violations.append(EquationFailure(eq_idx, v))
    if violations:
        return violations
    card = {obj: len(by_type[obj]) for obj in schema.objects}
    columns = {
        gen.name: [
            local[gen.cod][chosen[gen.name][v]] for v in by_type[gen.dom]
        ]
        for gen in schema.generators
    }
    return make_instance(schema, card, columns)
