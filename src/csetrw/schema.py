"""Finitely presented schemas: objects, generating morphisms, path equations.

A schema presents a category; instances over it are stored by `instance`.
Two paths out of a are equal when they name the same part of the
representable C(a, −), which the colimit engine's quotient builds from
the paths out of a. Only an acyclic schema has finitely many paths, so
path equality and the operations that need it are restricted to those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .errors import CyclicSchemaError, EndpointMismatchError


@dataclass(frozen=True)
class SchemaPath:
    """A composable sequence of generator names starting at `source`.

    An empty component list is the identity path at `source`.
    """

    source: str
    components: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class Generator:
    name: str
    dom: str
    cod: str


@dataclass
class SchemaPresentation:
    """Objects, generators and path equations, in declaration order.

    Treated as immutable once validated; lookup tables are precomputed
    or, for those only search uses, cached on first use.
    """

    objects: list[str]
    generators: list[Generator]
    equations: list[tuple[SchemaPath, SchemaPath]] = field(default_factory=list)

    def __post_init__(self):
        self.generators = [g if isinstance(g, Generator) else Generator(*g) for g in self.generators]
        self.equations = [tuple(eq) for eq in self.equations]
        self._gen_by_name = {g.name: g for g in self.generators}
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        self._outgoing: dict[str, list[Generator]] = {o: [] for o in self.objects}
        self._incoming: dict[str, list[Generator]] = {o: [] for o in self.objects}
        for g in self.generators:  # an end that is no object is left for `validate_schema`
            if g.dom in self._outgoing:
                self._outgoing[g.dom].append(g)
            if g.cod in self._incoming:
                self._incoming[g.cod].append(g)

    def generator(self, name: str) -> Generator:
        return self._gen_by_name[name]

    def obj_index(self, name: str) -> int:
        return self._obj_index[name]

    def outgoing(self, obj: str) -> list[Generator]:
        return self._outgoing[obj]

    def incoming(self, obj: str) -> list[Generator]:
        return self._incoming[obj]

    @cached_property
    def sources_first(self) -> list[str]:
        """Objects by how many objects they reach along generators, most first.

        Every object comes before each object it reaches that does not
        reach it back: on an acyclic schema, before the codomains of its
        generators; on a cyclic one, strongly connected components come
        sources first. Ties keep declaration order. Computed on first
        use, so that parsing a schema does not pay for it.
        """
        return sorted(self.objects, key=lambda o: -self._reach[o])

    def on_cycle(self, gen: Generator) -> bool:
        """Whether gen's codomain reaches its domain: both then reach as many objects."""
        return self._reach[gen.dom] == self._reach[gen.cod]

    @cached_property
    def _reach(self) -> dict[str, int]:
        """How many objects each object reaches along generators, itself included.

        Tarjan's algorithm closes strongly connected components sinks first, so each one's reach,
        an int bitset, is its own objects and the reach of its generators' codomains.
        """
        index, low, stack, bits, work = {}, {}, [], {}, []

        def visit(obj: str) -> None:
            index[obj] = low[obj] = len(index)
            work.append((obj, iter(self._outgoing.get(obj, ())), len(stack)))
            stack.append(obj)

        for obj in self.objects:
            if obj not in index:
                visit(obj)
            while work:
                obj, gens, at = work[-1]
                for gen in gens:
                    if gen.cod not in index:
                        visit(gen.cod)
                        break
                    if gen.cod not in bits:  # still on the stack, so in obj's component
                        low[obj] = min(low[obj], index[gen.cod])
                else:
                    work.pop()
                    if work:
                        low[work[-1][0]] = min(low[work[-1][0]], low[obj])
                    if low[obj] == index[obj]:  # obj roots a component, on the stack from obj up
                        members, stack[at:] = stack[at:], []
                        out = (bits.get(gen.cod, 0) for m in members for gen in self._outgoing.get(m, ()))
                        bits.update(dict.fromkeys(members, reduce(or_, out, sum(1 << index[m] for m in members))))
        return {obj: bits[obj].bit_count() for obj in self.objects}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SchemaPresentation):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.generators == other.generators
            and self.equations == other.equations
        )

    def __repr__(self):
        return (
            f"SchemaPresentation(objects={self.objects!r}, "
            f"generators={len(self.generators)}, equations={len(self.equations)})"
        )


def path_target(schema: SchemaPresentation, path: SchemaPath) -> str:
    """Target object of a path, raising ValueError if it does not compose."""
    cur = path.source
    if cur not in schema._obj_index:
        raise ValueError(f"path source {path.source!r} is not an object")
    for name in path.components:
        gen = schema._gen_by_name.get(name)
        if gen is None:
            raise ValueError(f"path component {name!r} is not a generator")
        if gen.dom != cur:
            raise ValueError(f"component {name!r} expects domain {gen.dom!r}, got {cur!r}")
        cur = gen.cod
    return cur


def validate_schema(schema: SchemaPresentation) -> list[str]:
    """All invariant violations of the presentation, as human-readable strings."""
    out: list[str] = []
    seen: set[str] = set()
    for obj in schema.objects:
        if obj in seen:
            out.append(f"duplicate object name {obj!r}")
        seen.add(obj)
    for gen in schema.generators:
        if gen.name in seen:
            out.append(f"name {gen.name!r} is not unique across objects and generators")
        seen.add(gen.name)
        if gen.dom not in schema._obj_index:
            out.append(f"generator {gen.name!r} has unknown domain {gen.dom!r}")
        if gen.cod not in schema._obj_index:
            out.append(f"generator {gen.name!r} has unknown codomain {gen.cod!r}")
    for i, (lhs, rhs) in enumerate(schema.equations):
        try:
            lt = path_target(schema, lhs)
            rt = path_target(schema, rhs)
        except ValueError as exc:
            out.append(f"equation {i} is malformed: {exc}")
            continue
        if lhs.source != rhs.source or lt != rt:
            out.append(
                f"equation {i} endpoints differ: "
                f"{lhs.source}->{lt} vs {rhs.source}->{rt}"
            )
    return out


def is_acyclic(schema: SchemaPresentation) -> bool:
    """True iff the generator graph on objects has no directed cycle."""
    return not any(map(schema.on_cycle, schema.generators))


def _paths_from(schema: SchemaPresentation, a: str) -> dict[str, list[SchemaPath]]:
    """The paths out of a per target, shortest first and then by generator index."""
    paths: dict[str, list[SchemaPath]] = {o: [] for o in schema.objects}
    todo = [(a, SchemaPath(a))]
    for at, path in todo:  # breadth first: grows as it is walked
        paths[at].append(path)
        todo += [(gen.cod, SchemaPath(a, path.components + (gen.name,))) for gen in schema.outgoing(at)]
    return paths


def _representable(schema: SchemaPresentation, a: str) -> dict[str, dict[SchemaPath, int]]:
    """Each path out of a, per target, with the part of C(a, −) it names.

    C(a, −) is the free C-set on one part at a, whose parts are the paths
    out of a, coequalized along p;lhs;q ~ p;rhs;q for every equation
    (lhs, rhs) and every p and q that compose with it. For each p those
    pairs are the images of two natural maps out of the free C-set on the
    equation's target, so `_quotient` glues them as they are. The free
    C-set is built over the schema without equations, which it need not
    satisfy.
    """
    from .colimits import _quotient
    from .instance import _trusted

    if not is_acyclic(schema):
        raise CyclicSchemaError("path enumeration requires an acyclic schema")
    paths = _paths_from(schema, a)
    part = {p.components: k for found in paths.values() for k, p in enumerate(found, 1)}
    columns = {g.name: [part[p.components + (g.name,)] for p in paths[g.dom]] for g in schema.generators}
    glue = []
    for lhs, rhs in schema.equations:
        outs = _paths_from(schema, path_target(schema, lhs))
        for p in paths[lhs.source]:
            lhs_comp, rhs_comp = (
                {o: [part[p.components + side.components + q.components] for q in qs] for o, qs in outs.items()}
                for side in (lhs, rhs)
            )
            glue.append((0, 0, lhs_comp, rhs_comp))
    free = _trusted(without_equations(schema), {o: len(found) for o, found in paths.items()}, columns)
    _, (leg,) = _quotient([free], glue)
    return {o: dict(zip(found, leg[o])) for o, found in paths.items()}


def hom_paths(schema: SchemaPresentation, a: str, b: str) -> list[list[SchemaPath]]:
    """Equivalence classes of paths a -> b modulo the schema equations.

    Each class lists its members with the canonical representative
    (shortest, then by generator declaration) first; classes are ordered
    by representative. Raises CyclicSchemaError when the schema has a
    directed cycle and ValueError when a or b is not an object.
    """
    for obj in (a, b):
        if obj not in schema._obj_index:
            raise ValueError(f"{obj!r} is not an object")
    classes: dict[int, list[SchemaPath]] = {}
    for path, part in _representable(schema, a)[b].items():
        classes.setdefault(part, []).append(path)
    return list(classes.values())


def paths_equal(schema: SchemaPresentation, p: SchemaPath, q: SchemaPath) -> bool:
    """Decide p = q modulo the schema equations (acyclic schemas only)."""
    if p.source != q.source or path_target(schema, p) != path_target(schema, q):
        raise EndpointMismatchError(f"paths {p} and {q} do not share endpoints")
    parts = _representable(schema, p.source)[path_target(schema, p)]
    return parts[p] == parts[q]


def without_equations(schema: SchemaPresentation) -> SchemaPresentation:
    """Copy of the schema with all path equations dropped."""
    return SchemaPresentation(list(schema.objects), list(schema.generators), [])


def graph_schema() -> SchemaPresentation:
    """The schema of directed multigraphs: src, tgt : E -> V."""
    return SchemaPresentation(
        objects=["V", "E"],
        generators=[Generator("src", "E", "V"), Generator("tgt", "E", "V")],
    )


def delta2_schema() -> SchemaPresentation:
    """Two-dimensional semi-simplicial sets.

    A triangle t spans vertices a -> b -> c with boundary edges
    d1(t): a -> b, d2(t): b -> c and d0(t): a -> c; the three equations
    pin the edges of each triangle together at its corners.
    """
    path = SchemaPath
    return SchemaPresentation(
        objects=["V", "E", "T"],
        generators=[
            Generator("src", "E", "V"),
            Generator("tgt", "E", "V"),
            Generator("d0", "T", "E"),
            Generator("d1", "T", "E"),
            Generator("d2", "T", "E"),
        ],
        equations=[
            (path("T", ("d0", "src")), path("T", ("d1", "src"))),
            (path("T", ("d0", "tgt")), path("T", ("d2", "tgt"))),
            (path("T", ("d1", "tgt")), path("T", ("d2", "src"))),
        ],
    )
