"""Finitely presented schemas: objects, generating morphisms, path equations.

A schema presents a category; instances over it are stored by `instance`.
Path equality is decided by exhaustive enumeration, which is why the
operations that need it are restricted to acyclic schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        self._gen_index = {g.name: i for i, g in enumerate(self.generators)}
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        self._outgoing = {o: [g for g in self.generators if g.dom == o] for o in self.objects}

    def generator(self, name: str) -> Generator:
        return self._gen_by_name[name]

    def gen_index(self, name: str) -> int:
        return self._gen_index[name]

    def obj_index(self, name: str) -> int:
        return self._obj_index[name]

    def outgoing(self, obj: str) -> list[Generator]:
        return self._outgoing[obj]

    def incoming(self, obj: str) -> list[Generator]:
        return self._incoming[obj]

    @cached_property
    def _incoming(self) -> dict[str, list[Generator]]:
        return {o: [g for g in self.generators if g.cod == o] for o in self.objects}

    @cached_property
    def sources_first(self) -> list[str]:
        """Objects by how many objects they reach along generators, most first.

        Every object comes before each object it reaches that does not
        reach it back: on an acyclic schema, before the codomains of its
        generators; on a cyclic one, strongly connected components come
        sources first. Ties keep declaration order. Computed on first
        use, like `incoming`, so that parsing a schema does not pay for it.
        """
        return sorted(self.objects, key=lambda o: -self._reach[o])

    def on_cycle(self, gen: Generator) -> bool:
        """Whether gen's codomain reaches its domain: both then reach as many objects."""
        return self._reach[gen.dom] == self._reach[gen.cod]

    @cached_property
    def _reach(self) -> dict[str, int]:
        """How many objects each object reaches along generators, itself included."""
        count = {}
        for obj in self.objects:
            seen, todo = {obj}, [obj]
            for cur in todo:
                for gen in self._outgoing.get(cur, ()):
                    if gen.cod not in seen:
                        seen.add(gen.cod)
                        todo.append(gen.cod)
            count[obj] = len(seen)
        return count

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


class PathUniverse:
    """All paths of an acyclic schema, partitioned modulo the equations.

    The congruence closure is computed by union-find seeded with the
    presented equations and closed under pre- and post-composition by
    single generators.
    """

    def __init__(self, schema: SchemaPresentation):
        if not is_acyclic(schema):
            raise CyclicSchemaError("path enumeration requires an acyclic schema")
        self.schema = schema
        self.paths: list[SchemaPath] = []
        for obj in schema.objects:
            self._walk(SchemaPath(obj, ()), obj)
        self._targets = {p: path_target(schema, p) for p in self.paths}
        self._parent: dict[SchemaPath, SchemaPath] = {p: p for p in self.paths}
        worklist: list[tuple[SchemaPath, SchemaPath]] = []
        for lhs, rhs in schema.equations:
            if self._union(lhs, rhs):
                worklist.append((lhs, rhs))
        while worklist:
            p, q = worklist.pop()
            tgt = self._targets[p]
            for gen in schema.outgoing(tgt):
                a = SchemaPath(p.source, p.components + (gen.name,))
                b = SchemaPath(q.source, q.components + (gen.name,))
                if self._union(a, b):
                    worklist.append((a, b))
            for gen in schema.generators:
                if gen.cod == p.source:
                    a = SchemaPath(gen.dom, (gen.name,) + p.components)
                    b = SchemaPath(gen.dom, (gen.name,) + q.components)
                    if self._union(a, b):
                        worklist.append((a, b))
        self._classes: dict[SchemaPath, list[SchemaPath]] = {}
        for p in self.paths:
            self._classes.setdefault(self._find(p), []).append(p)
        for members in self._classes.values():
            members.sort(key=self._order_key)
        # canonical: class keyed by its minimal member
        self._canonical = {root: members[0] for root, members in self._classes.items()}

    def _walk(self, path: SchemaPath, at: str) -> None:
        self.paths.append(path)
        for gen in self.schema.outgoing(at):
            self._walk(SchemaPath(path.source, path.components + (gen.name,)), gen.cod)

    def _order_key(self, p: SchemaPath):
        return (len(p.components), tuple(self.schema.gen_index(c) for c in p.components))

    def _find(self, p: SchemaPath) -> SchemaPath:
        root = p
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[p] != root:
            self._parent[p], p = root, self._parent[p]
        return root

    def _union(self, p: SchemaPath, q: SchemaPath) -> bool:
        rp, rq = self._find(p), self._find(q)
        if rp == rq:
            return False
        self._parent[rq] = rp
        return True

    def canonical(self, p: SchemaPath) -> SchemaPath:
        """Canonical representative (shortest, then by generator declaration)."""
        return self._canonical[self._find(p)]

    def classes_between(self, a: str, b: str) -> list[list[SchemaPath]]:
        out = [
            members
            for members in self._classes.values()
            if members[0].source == a and self._targets[members[0]] == b
        ]
        out.sort(key=lambda members: self._order_key(members[0]))
        return out

    def target(self, p: SchemaPath) -> str:
        return self._targets[p]


def hom_paths(schema: SchemaPresentation, a: str, b: str) -> list[list[SchemaPath]]:
    """Equivalence classes of paths a -> b modulo the schema equations.

    Each class lists its members with the canonical representative first;
    classes are ordered by representative. Raises CyclicSchemaError when
    the schema has a directed cycle.
    """
    return PathUniverse(schema).classes_between(a, b)


def paths_equal(schema: SchemaPresentation, p: SchemaPath, q: SchemaPath) -> bool:
    """Decide p = q modulo the schema equations (acyclic schemas only)."""
    if p.source != q.source or path_target(schema, p) != path_target(schema, q):
        raise EndpointMismatchError(f"paths {p} and {q} do not share endpoints")
    universe = PathUniverse(schema)
    return universe.canonical(p) == universe.canonical(q)


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
