"""Output checks written apart from the program.

They read the columns and components of the program's outputs and test
them against facts worked out from the grid layout (see grid.py). None of
them calls into csetrw, and none compares against stored output.
"""

from __future__ import annotations

from collections import Counter


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def valid(x, what: str) -> None:
    """Columns total, in range, and every path equation holds pointwise."""
    schema = x.schema
    for gen in schema.generators:
        col = x.column[gen.name]
        bound = x.card[gen.cod]
        expect(len(col) == x.card[gen.dom], f"{what}: column {gen.name} has the wrong length")
        expect(all(1 <= v <= bound for v in col), f"{what}: column {gen.name} leaves 1..{bound}")
    for lhs, rhs in schema.equations:
        sides = []
        for path in (lhs, rhs):
            values = list(range(1, x.card[path.source] + 1))
            for name in path.components:
                col = x.column[name]
                values = [col[v - 1] for v in values]
            sides.append(values)
        expect(sides[0] == sides[1], f"{what}: equation {lhs.components} = {rhs.components} fails")


def natural(t, what: str) -> None:
    """Components in range and every naturality square commutes."""
    dom, cod = t.dom, t.cod
    for obj in dom.schema.objects:
        comp = t.comp[obj]
        bound = cod.card[obj]
        expect(len(comp) == dom.card[obj], f"{what}: component {obj} has the wrong length")
        expect(all(1 <= v <= bound for v in comp), f"{what}: component {obj} leaves 1..{bound}")
    for gen in dom.schema.generators:
        after = t.comp[gen.cod]
        before = t.comp[gen.dom]
        dom_col, cod_col = dom.column[gen.name], cod.column[gen.name]
        expect(
            all(after[a - 1] == cod_col[b - 1] for a, b in zip(dom_col, before)),
            f"{what}: square for {gen.name} does not commute",
        )


def monic(t, what: str) -> None:
    for obj, comp in t.comp.items():
        expect(len(set(comp)) == len(comp), f"{what}: component {obj} is not injective")


def invert(ids: dict) -> dict:
    return {i: label for label, i in ids.items()}


def shape(x, vertex_of: dict) -> tuple[set, set]:
    """Edges as coordinate pairs and triangles as coordinate triples,
    reading vertex ids through `vertex_of`."""
    src, tgt = x.column["src"], x.column["tgt"]
    d1, d2 = x.column["d1"], x.column["d2"]
    edges = {(vertex_of[s], vertex_of[t]) for s, t in zip(src, tgt)}
    triangles = {
        (vertex_of[src[a - 1]], vertex_of[tgt[a - 1]], vertex_of[tgt[b - 1]]) for a, b in zip(d1, d2)
    }
    return edges, triangles


def same_shape(x, vertex_of: dict, expected: tuple[set, set], what: str) -> None:
    """x is the expected mesh: same cardinalities, same edges, same triangles."""
    edges, triangles = expected
    expect(len(vertex_of) == x.card["V"], f"{what}: {x.card['V']} vertices, expected {len(vertex_of)}")
    expect(x.card["E"] == len(edges), f"{what}: {x.card['E']} edges, expected {len(edges)}")
    expect(x.card["T"] == len(triangles), f"{what}: {x.card['T']} triangles, expected {len(triangles)}")
    got = shape(x, vertex_of)
    expect(got[0] == edges, f"{what}: edges differ from the expected mesh")
    expect(got[1] == triangles, f"{what}: triangles differ from the expected mesh")


def incidence(x) -> list[tuple[int, int, int]]:
    """Per vertex: (in-degree, out-degree, triangles with it as a corner)."""
    n = x.card["V"]
    ins, outs, tris = [0] * n, [0] * n, [0] * n
    src, tgt = x.column["src"], x.column["tgt"]
    for v in tgt:
        ins[v - 1] += 1
    for v in src:
        outs[v - 1] += 1
    for a, b in zip(x.column["d1"], x.column["d2"]):
        for v in {src[a - 1], tgt[a - 1], tgt[b - 1]}:
            tris[v - 1] += 1
    return list(zip(ins, outs, tris))


def degree_profile(x) -> Counter:
    return Counter(incidence(x))


def d0_pairs(matches, pattern, host, what: str) -> list[tuple[int, int]]:
    """Each match checked natural; returns its pair of triangle images."""
    pairs = []
    for m in matches:
        expect(m.dom is pattern or m.dom == pattern, f"{what}: match from the wrong pattern")
        expect(m.cod is host or m.cod == host, f"{what}: match into the wrong host")
        natural(m, what)
        pairs.append(tuple(m.comp["T"]))
    return sorted(pairs)
