"""Independent brute-force oracles used to cross-check the library.

Everything here enumerates exhaustively and checks the definitions
directly. The enumerators deliberately avoid the propagation tricks of
the real search so that agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools

from csetrw.instance import CSetInstance, TypedGraph, make_instance
from csetrw.schema import Generator, SchemaPresentation, graph_schema
from csetrw.transform import Transformation, is_natural

GRAPH = graph_schema()


def brute_homs(x: CSetInstance, y: CSetInstance, monic: bool = False) -> list[Transformation]:
    """Exhaustive enumeration of natural transformations x -> y.

    Walks every per-part assignment in a fixed order, rejecting as soon
    as a fully determined naturality square fails.
    """
    objs = x.schema.objects
    variables = [(obj, p) for obj in objs for p in x.parts(obj)]
    assign = {obj: [0] * x.card[obj] for obj in objs}
    out: list[Transformation] = []

    def square_ok(gen: Generator, part: int) -> bool:
        a = assign[gen.dom][part - 1]
        b = assign[gen.cod][x.column[gen.name][part - 1] - 1]
        if a and b:
            return y.column[gen.name][a - 1] == b
        return True

    def consistent(obj: str, part: int) -> bool:
        for gen in x.schema.generators:
            if gen.dom == obj and not square_ok(gen, part):
                return False
            if gen.cod == obj:
                for p in x.parts(gen.dom):
                    if x.column[gen.name][p - 1] == part and not square_ok(gen, p):
                        return False
        return True

    def rec(i: int) -> None:
        if i == len(variables):
            t = Transformation(x, y, {o: list(assign[o]) for o in objs})
            assert not is_natural(t)
            out.append(t)
            return
        obj, part = variables[i]
        for v in range(1, y.card[obj] + 1):
            if monic and v in assign[obj]:
                continue
            assign[obj][part - 1] = v
            if consistent(obj, part):
                rec(i + 1)
            assign[obj][part - 1] = 0

    rec(0)
    out.sort(key=lambda t: tuple(tuple(t.comp[o]) for o in objs))
    return out


def closed_subsets(x: CSetInstance) -> list[dict[str, set[int]]]:
    """All part selections closed under every column."""
    objs = x.schema.objects
    per = []
    for o in objs:
        n = x.card[o]
        per.append([frozenset(p + 1 for p in range(n) if m >> p & 1) for m in range(1 << n)])
    out = []
    for combo in itertools.product(*per):
        sel = dict(zip(objs, combo))
        if all(
            x.column[g.name][p - 1] in sel[g.cod]
            for g in x.schema.generators
            for p in sel[g.dom]
        ):
            out.append({o: set(s) for o, s in sel.items()})
    return out


def subinstance(x: CSetInstance, parts: dict[str, set[int]]) -> CSetInstance:
    """Materialize a closed part selection, parts renumbered ascending."""
    local = {o: {p: i + 1 for i, p in enumerate(sorted(parts.get(o, ())))} for o in x.schema.objects}
    card = {o: len(local[o]) for o in x.schema.objects}
    columns = {
        g.name: [local[g.cod][x.column[g.name][p - 1]] for p in sorted(parts.get(g.dom, ()))]
        for g in x.schema.generators
    }
    return make_instance(x.schema, card, columns)


def count_partial_maps(a: CSetInstance, x: CSetInstance) -> int:
    """Number of pairs (subobject a' of a, hom a' -> x)."""
    return sum(len(brute_homs(subinstance(a, sel), x)) for sel in closed_subsets(a))


def mediating_out(leg_b, leg_c, u, v) -> list[Transformation]:
    """Natural maps out of a pushout apex commuting with a cocone."""
    apex = leg_b.cod
    return [
        t
        for t in brute_homs(apex, u.cod)
        if leg_b.compose(t) == u and leg_c.compose(t) == v
    ]


def mediating_in(p1, p2, u, v) -> list[Transformation]:
    """Natural maps into a pullback apex commuting with a cone."""
    apex = p1.dom
    return [t for t in brute_homs(u.dom, apex) if t.compose(p1) == u and t.compose(p2) == v]


def is_pullback_square(f, g, p1, p2) -> bool:
    """The canonical map from the square's corner to agreeing pairs bijects."""
    corner = p1.dom
    for obj in corner.schema.objects:
        pairs = {
            (b, c)
            for b in f.dom.parts(obj)
            for c in g.dom.parts(obj)
            if f.comp[obj][b - 1] == g.comp[obj][c - 1]
        }
        images = [
            (p1.comp[obj][i], p2.comp[obj][i]) for i in range(corner.card[obj])
        ]
        if len(set(images)) != len(images) or set(images) != pairs:
            return False
    return True


def typed_graph_minus(tg: TypedGraph, removed: set[int]) -> TypedGraph:
    """Graph subtraction: drop the vertices and all incident edges."""
    keep_v = [v for v in tg.graph.parts("V") if v not in removed]
    vmap = {v: i + 1 for i, v in enumerate(keep_v)}
    keep_e = [
        e
        for e in tg.graph.parts("E")
        if tg.graph.apply("src", e) in vmap and tg.graph.apply("tgt", e) in vmap
    ]
    graph = make_instance(
        GRAPH,
        {"V": len(keep_v), "E": len(keep_e)},
        {
            "src": [vmap[tg.graph.apply("src", e)] for e in keep_e],
            "tgt": [vmap[tg.graph.apply("tgt", e)] for e in keep_e],
        },
    )
    typing = Transformation(
        graph,
        tg.typing.cod,
        {
            "V": [tg.typing.comp["V"][v - 1] for v in keep_v],
            "E": [tg.typing.comp["E"][e - 1] for e in keep_e],
        },
    )
    return TypedGraph(graph, typing, tg.schema)


def random_typed_graph(rng, base: CSetInstance, max_vertices: int, max_edges: int) -> Transformation:
    """A random graph with its typing into the graph `base`, which has a vertex.

    Each vertex takes a random type. Each edge takes a random base edge
    with vertices over both of its ends, and joins two such vertices.
    """
    types = [rng.randint(1, base.card["V"]) for _ in range(rng.randint(1, max_vertices))]
    over = {t: [v for v, u in enumerate(types, 1) if u == t] for t in base.parts("V")}
    usable = [e for e in base.parts("E") if over[base.apply("src", e)] and over[base.apply("tgt", e)]]
    edges = [rng.choice(usable) for _ in range(rng.randint(0, max_edges))] if usable else []
    graph = make_instance(
        GRAPH,
        {"V": len(types), "E": len(edges)},
        {
            "src": [rng.choice(over[base.apply("src", e)]) for e in edges],
            "tgt": [rng.choice(over[base.apply("tgt", e)]) for e in edges],
        },
    )
    return Transformation(graph, base, {"V": types, "E": edges})


def random_acyclic_schema(rng, max_objects: int = 3, max_gens: int = 3) -> SchemaPresentation:
    n = rng.randint(2, max_objects)
    objects = [f"O{i}" for i in range(n)]
    gens = []
    for k in range(rng.randint(1, max_gens)):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        gens.append(Generator(f"g{k}", objects[i], objects[j]))
    return SchemaPresentation(objects, gens)


def loop_graph_schema() -> SchemaPresentation:
    """Graphs whose edges each name a next edge: `next: E -> E` is a loop."""
    return SchemaPresentation(
        ["V", "E"],
        [Generator("src", "E", "V"), Generator("tgt", "E", "V"), Generator("next", "E", "E")],
    )


def random_cyclic_schema(rng) -> SchemaPresentation:
    """Graph schemas with a self-map on edges, or two objects mapping to each other."""
    if rng.random() < 0.5:
        return loop_graph_schema()
    return SchemaPresentation(
        ["A", "B", "C"],
        [Generator("f", "A", "B"), Generator("g", "B", "A"), Generator("h", "C", "A")],
    )


def random_instance(rng, schema: SchemaPresentation, max_parts: int = 3, min_parts: int = 0) -> CSetInstance:
    card = {o: rng.randint(min_parts, max_parts) for o in schema.objects}
    changed = True
    while changed:
        changed = False
        for g in schema.generators:
            if card[g.cod] == 0 and card[g.dom]:
                card[g.dom] = 0
                changed = True
    columns = {
        g.name: [rng.randint(1, card[g.cod]) for _ in range(card[g.dom])]
        for g in schema.generators
    }
    return make_instance(schema, card, columns)


def random_pins(rng, x: CSetInstance, y: CSetInstance, homs: list[Transformation], count: int) -> dict[str, dict[int, int]]:
    """Up to `count` search pins on parts of x, as `SearchOptions.initial` takes them.

    After the first, each pin is as often as not on a part that an
    earlier pin forces along a column. Half of the values follow one of
    `homs`; a pin on a forced part may take the part after the forced
    value, a conflict; the rest are random, and now and then one lies
    just past y's parts.
    """
    parts = [(o, p) for o in x.schema.objects for p in x.parts(o)]
    source = rng.choice(homs) if homs else None
    pins: dict[str, dict[int, int]] = {}
    for _ in range(count if parts else 0):
        obj, part = rng.choice(parts)
        forced = None  # the value an earlier pin forces on the part
        if pins and rng.random() < 0.5:
            o, p = rng.choice([(o, p) for o, ps in pins.items() for p in ps])
            if x.schema.outgoing(o):
                g = rng.choice(x.schema.outgoing(o))
                obj, part = g.cod, x.column[g.name][p - 1]
                if pins[o][p] <= y.card[o]:
                    forced = y.column[g.name][pins[o][p] - 1]
        r = rng.random()
        if source is not None and r < 0.5:
            value = source.comp[obj][part - 1]
        elif forced is not None and r < 0.75:
            value = forced % y.card[obj] + 1
        elif r < 0.95:
            value = rng.randint(1, max(y.card[obj], 1))
        else:
            value = y.card[obj] + 1
        pins.setdefault(obj, {})[part] = value
    return pins


def random_closed_parts(rng, x: CSetInstance, keep_probability: float = 0.7) -> dict[str, set[int]]:
    sel = {
        o: {p for p in x.parts(o) if rng.random() < keep_probability}
        for o in x.schema.objects
    }
    changed = True
    while changed:
        changed = False
        for g in x.schema.generators:
            for p in list(sel[g.dom]):
                q = x.column[g.name][p - 1]
                if q not in sel[g.cod]:
                    sel[g.cod].add(q)
                    changed = True
    return sel
