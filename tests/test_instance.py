from __future__ import annotations

import random

import pytest

from csetrw import colimits
from csetrw import instance as instance_module
from csetrw.errors import InvalidInstanceError, PartOutOfRangeError
from csetrw.instance import (
    CardViolation,
    ColumnLengthViolation,
    ColumnRangeViolation,
    CSetInstance,
    EquationFailure,
    EquationViolation,
    MissingEdge,
    MultipleEdges,
    TypedGraph,
    check_discrete_opfibration,
    elements,
    empty_instance,
    incident,
    make_instance,
    restrict,
    schema_graph,
    validate_instance,
)
from csetrw.mesh import gen_mesh
from csetrw.schema import Generator, SchemaPath, SchemaPresentation
from csetrw.search import is_isomorphic
from csetrw.transform import Transformation, _adopt

from oracles import random_acyclic_schema, random_closed_parts, random_instance


@pytest.mark.parametrize("module", [instance_module, colimits], ids=lambda m: m.__name__)
def test_built_instances_are_validated_under_test(module, graph):
    """The suite's fixture checks what `_trusted` builds, wherever it is looked up."""
    with pytest.raises(pytest.fail.Exception, match="invalid instance"):
        module._trusted(graph, {"V": 1, "E": 1}, {"src": [2], "tgt": [1]})


def test_make_instance_builds_indices(small_graph):
    assert small_graph.index["tgt"] == [[], [1], [2, 3]]
    assert small_graph.index["src"] == [[1], [2, 3], []]


def test_empty_instance(graph):
    x = empty_instance(graph)
    assert x.card == {"V": 0, "E": 0}
    assert validate_instance(x) == []


def test_equation_violation_names_the_equation(d2):
    with pytest.raises(InvalidInstanceError) as err:
        make_instance(
            d2,
            {"V": 3, "E": 3, "T": 1},
            # d1;tgt lands on vertex 3 but d2;src on vertex 1
            {"src": [1, 1, 1], "tgt": [3, 2, 3], "d0": [1], "d1": [2], "d2": [3]},
        )
    assert any(isinstance(v, EquationFailure) or "equation" in str(v) for v in err.value.violations)


def test_codomain_bound_violation(graph):
    x = CSetInstance(graph, {"V": 4, "E": 1}, {"src": [1], "tgt": [7]})
    violations = validate_instance(x)
    assert len(violations) == 1
    assert "7" in str(violations[0])


def test_incident(small_graph):
    assert incident(small_graph, "tgt", 3) == [2, 3]
    assert incident(small_graph, "src", 3) == []
    with pytest.raises(PartOutOfRangeError):
        incident(small_graph, "tgt", 4)


def test_incident_on_empty(graph):
    x = make_instance(graph, {"V": 1}, {})
    assert incident(x, "src", 1) == []


def test_incident_matches_scan(small_graph):
    for gen in ("src", "tgt"):
        column = small_graph.column[gen]
        for v in small_graph.parts("V"):
            scan = [e for e in small_graph.parts("E") if column[e - 1] == v]
            assert incident(small_graph, gen, v) == scan


def test_elements_counts(small_graph, two_triangles):
    el = elements(small_graph)
    assert el.graph.card == {"V": 6, "E": 6}
    el2 = elements(two_triangles)
    # 11 parts; each edge contributes 2 element edges, each triangle 3
    assert el2.graph.card == {"V": 11, "E": 16}


def test_typed_graph_names_each_vertex_and_edge_type(small_graph):
    el = elements(small_graph)
    # the V-parts come first, then the E-parts; every src edge, then every tgt edge
    assert [el.vertex_type(v) for v in el.graph.parts("V")] == ["V"] * 3 + ["E"] * 3
    assert [el.edge_type(e) for e in el.graph.parts("E")] == ["src"] * 3 + ["tgt"] * 3
    for e in el.graph.parts("E"):
        gen = small_graph.schema.generator(el.edge_type(e))
        assert (el.vertex_type(el.graph.apply("src", e)), el.vertex_type(el.graph.apply("tgt", e))) == (gen.dom, gen.cod)


def test_elements_roundtrip(small_graph, two_triangles):
    for x in (small_graph, two_triangles):
        back = check_discrete_opfibration(elements(x))
        assert isinstance(back, CSetInstance)
        assert back == x


def test_elements_roundtrip_randomized():
    rng = random.Random(11)
    for _ in range(25):
        schema = random_acyclic_schema(rng)
        x = random_instance(rng, schema)
        back = check_discrete_opfibration(elements(x))
        assert isinstance(back, CSetInstance)
        assert is_isomorphic(back, x) is not None


def test_opfibration_empty(graph):
    tg = elements(empty_instance(graph))
    assert check_discrete_opfibration(tg) == empty_instance(graph)


def test_opfibration_detects_each_failure(d2):
    # triangle graph missing one tgt edge entirely
    base = schema_graph(d2)
    graph_inst = make_instance(
        elements(empty_instance(d2)).graph.schema,
        {"V": 2, "E": 1},
        {"src": [2], "tgt": [1]},
    )
    typing = Transformation(graph_inst, base, {"V": [1, 2], "E": [2]})
    out = check_discrete_opfibration(
        type(elements(empty_instance(d2)))(graph_inst, typing, d2)
    )
    assert out == [MissingEdge("src", 2)]


def test_opfibration_reports_violations_in_order(d2):
    # two disjoint triangles; element vertices: V 1-6, E 7-12, T 13-14
    x = make_instance(
        d2,
        {"V": 6, "E": 6, "T": 2},
        {"src": [1, 1, 2, 4, 4, 5], "tgt": [3, 2, 3, 6, 5, 6], "d0": [1, 4], "d1": [2, 5], "d2": [3, 6]},
    )
    el = elements(x)
    src, tgt = 1, 2  # edge types
    edges = list(zip(el.graph.column["src"], el.graph.column["tgt"], el.typing.comp["E"]))
    edges.remove((7, 1, src))  # E1 has no src: equation 0 is not checked at T1
    edges.remove((12, 5, src))  # E6 has no src
    edges.append((11, 5, tgt))  # E5 has two tgt edges
    edges[edges.index((8, 1, src))] = (8, 2, src)  # d1 src of T1 moves; d0 src is missing
    edges[edges.index((9, 3, tgt))] = (9, 1, tgt)  # equation 1 fails at T1
    edges[edges.index((12, 6, tgt))] = (12, 4, tgt)  # equation 1 fails at T2
    edges[edges.index((11, 4, src))] = (11, 5, src)  # equation 0 fails at T2
    edges.reverse()
    graph = make_instance(
        el.graph.schema,
        {"V": 14, "E": len(edges)},
        {"src": [e[0] for e in edges], "tgt": [e[1] for e in edges]},
    )
    typing = Transformation(graph, el.typing.cod, {"V": el.typing.comp["V"], "E": [e[2] for e in edges]})
    assert check_discrete_opfibration(TypedGraph(graph, typing, d2)) == [
        MissingEdge("src", 7),
        MissingEdge("src", 12),
        MultipleEdges("tgt", 11),
        EquationFailure(0, 14),
        EquationFailure(1, 13),
        EquationFailure(1, 14),
    ]


def test_opfibration_refuses_a_non_natural_typing(graph):
    # vertex 1 of the element graph is a V-part; typed as an E-part, the
    # src and tgt edges into it end at a vertex of the wrong type
    tg = elements(make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]}))
    vertex_types = [2] + tg.typing.comp["V"][1:]
    typing = Transformation(tg.graph, tg.typing.cod, {"V": vertex_types, "E": tg.typing.comp["E"]})
    with pytest.raises(ValueError, match="not well-typed"):
        check_discrete_opfibration(TypedGraph(tg.graph, typing, graph))


def test_opfibration_refuses_an_out_of_range_typing(graph):
    tg = elements(make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]}))
    typing = _adopt(tg.graph, tg.typing.cod, {"V": [3] + tg.typing.comp["V"][1:], "E": tg.typing.comp["E"]})
    with pytest.raises(ValueError, match="sends 1 outside 1..2"):
        check_discrete_opfibration(TypedGraph(tg.graph, typing, graph))


def test_validate_instance_invariant_under_renumbering(small_graph):
    rng = random.Random(3)
    perm_v = list(small_graph.parts("V"))
    perm_e = list(small_graph.parts("E"))
    for _ in range(10):
        rng.shuffle(perm_v)
        rng.shuffle(perm_e)
        cols = {
            "src": [perm_v[small_graph.apply("src", e) - 1] for e in perm_e],
            "tgt": [perm_v[small_graph.apply("tgt", e) - 1] for e in perm_e],
        }
        x = CSetInstance(small_graph.schema, dict(small_graph.card), cols)
        assert validate_instance(x) == []


def test_restrict_swaps_last_into_slot(small_graph):
    # drop vertex 1 and edge 1: vertex 3 moves into slot 1
    out, incl = restrict(small_graph, {"V": {2, 3}, "E": {2, 3}})
    assert out.card == {"V": 2, "E": 2}
    assert incl.comp["V"] == [3, 2]
    assert incl.comp["E"] == [3, 2]
    assert out.column["src"] == [2, 2]
    assert out.column["tgt"] == [1, 1]


def test_restrict_rejects_dangling(small_graph):
    with pytest.raises(ValueError):
        restrict(small_graph, {"V": {1, 2}, "E": {1, 2, 3}})


def test_restrict_requires_closure(small_graph):
    with pytest.raises(ValueError):
        restrict(small_graph, {"V": {1}, "E": {1}})
    sub, incl = restrict(small_graph, {"V": {1, 2}, "E": {1}})
    assert sub.card == {"V": 2, "E": 1}
    assert incl.comp == {"V": [1, 2], "E": [1]}


def test_restrict_refuses_an_unknown_object(small_graph):
    # a lower-case typo must not read as "keep no vertex"
    with pytest.raises(ValueError, match="kept object 'v' is not in the schema"):
        restrict(small_graph, {"v": {1, 2, 3}})


@pytest.fixture()
def trusted_builds(monkeypatch):
    """The instances `restrict` builds, in order."""
    built = []
    trusted = instance_module._trusted

    def counting(schema, card, columns):
        built.append(trusted(schema, card, columns))
        return built[-1]

    monkeypatch.setattr(instance_module, "_trusted", counting)
    return built


def test_restrict_refuses_before_it_builds(small_graph, trusted_builds):
    # edges 2 and 3 are kept, but the vertex 3 they point at is not
    with pytest.raises(ValueError, match="not closed under column 'tgt'"):
        restrict(small_graph, {"V": {1, 2}, "E": {1, 2, 3}})
    assert trusted_builds == []
    restrict(small_graph, {"V": {1, 2}, "E": {1}})
    assert len(trusted_builds) == 1


def test_refused_pushout_complement_builds_nothing(small_graph, trusted_builds):
    # deleting vertex 2 leaves all three edges dangling, in column order
    point = make_instance(small_graph.schema, {"V": 1}, {})
    empty = empty_instance(small_graph.schema)
    f = Transformation(empty, point, {})
    g = Transformation(point, small_graph, {"V": [2]})
    expected = [colimits.DanglingViolation(*v) for v in (("src", 2), ("src", 3), ("tgt", 1))]
    assert colimits.check_pushout_complement(f, g) == expected
    with pytest.raises(colimits.ComplementViolationsError) as err:
        colimits.pushout_complement(f, g)
    assert err.value.violations == expected
    assert trusted_builds == []


def walk_validate(x: CSetInstance) -> list:
    """validate_instance's records by the part-by-part walk it replaced."""
    out: list = [CardViolation(o, x.card[o]) for o in x.schema.objects if x.card[o] < 0]
    broken = set()
    for gen in x.schema.generators:
        col, bound = x.column[gen.name], x.card[gen.cod]
        if len(col) != x.card[gen.dom]:
            out.append(ColumnLengthViolation(gen.name, x.card[gen.dom], len(col)))
            broken.add(gen.name)
            continue
        for i, v in enumerate(col):
            if not 1 <= v <= bound:
                out.append(ColumnRangeViolation(gen.name, i + 1, v, bound))
                broken.add(gen.name)
    for eq_idx, (lhs, rhs) in enumerate(x.schema.equations):
        if broken.intersection(lhs.components + rhs.components):
            continue
        for part in range(1, x.card[lhs.source] + 1):
            a, b = x.apply_path(lhs, part), x.apply_path(rhs, part)
            if a != b:
                out.append(EquationViolation(eq_idx, part, a, b))
    return out


def _corrupted(rng, x: CSetInstance) -> CSetInstance:
    """A copy of x with one to three random defects, built without checks."""
    card, columns = dict(x.card), {g: list(c) for g, c in x.column.items()}
    for _ in range(rng.randint(1, 3)):
        gen = rng.choice(x.schema.generators)
        col = columns[gen.name]
        defect = rng.choice(["length", "range", "card", "equation", "equation"])
        if defect == "length" and col and rng.random() < 0.5:
            col.pop()
        elif defect == "length":
            col.append(1)
        elif defect == "range" and col:
            col[rng.randrange(len(col))] = rng.choice([0, -1, card[gen.cod] + 1, card[gen.cod] + 7])
        elif defect == "card":
            card[rng.choice(x.schema.objects)] = -1
        elif defect == "equation" and col and card[gen.cod] > 1:
            col[rng.randrange(len(col))] = rng.randint(1, card[gen.cod])
    return CSetInstance(x.schema, card, columns)


def test_validate_instance_agrees_with_part_walk():
    rng = random.Random(29)
    involution = SchemaPresentation(
        ["V", "E"],
        [Generator("inv", "E", "E"), Generator("src", "E", "V")],
        [(SchemaPath("E", ("inv", "inv")), SchemaPath("E", ()))],
    )
    hosts = [gen_mesh(2, 3), gen_mesh(1, 1)]
    hosts.append(make_instance(involution, {"V": 2, "E": 4}, {"inv": [2, 1, 4, 3], "src": [1, 1, 2, 2]}))
    hosts += [random_instance(rng, random_acyclic_schema(rng), max_parts=4) for _ in range(20)]
    kinds = set()
    for i in range(600):
        x = _corrupted(rng, hosts[i % len(hosts)])
        expected = walk_validate(x)
        assert validate_instance(x) == expected
        kinds.update(type(v).__name__ for v in expected)
    assert kinds == {"CardViolation", "ColumnLengthViolation", "ColumnRangeViolation", "EquationViolation"}
    for x in hosts:
        assert validate_instance(x) == walk_validate(x) == []


def walk_restrict(x: CSetInstance, kept: dict[str, set[int]]):
    """restrict's card, columns and inclusion by the per-part remap it replaced."""
    slots, renumber = {}, {}
    for obj in x.schema.objects:
        n = x.card[obj]
        order = list(range(1, n + 1))
        new = list(order)
        for part in sorted(set(order) - kept.get(obj, set()), reverse=True):
            last = order.pop()
            new[part - 1] = 0
            if last != part:
                order[part - 1] = last
                new[last - 1] = part
        slots[obj], renumber[obj] = order, new
    columns = {}
    for gen in x.schema.generators:
        col = [renumber[gen.cod][x.column[gen.name][old - 1] - 1] for old in slots[gen.dom]]
        if 0 in col:
            raise ValueError(f"kept parts are not closed under column {gen.name!r}")
        columns[gen.name] = col
    return {o: len(s) for o, s in slots.items()}, columns, slots


def test_restrict_agrees_with_per_part_remap():
    rng = random.Random(31)
    refused = 0
    for i in range(400):
        x = random_instance(rng, random_acyclic_schema(rng), max_parts=6)
        if i % 2:
            kept = random_closed_parts(rng, x, keep_probability=rng.random())
        else:  # often not closed
            kept = {o: {p for p in x.parts(o) if rng.random() < 0.6} for o in x.schema.objects}
        try:
            expected = walk_restrict(x, kept)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                restrict(x, kept)
            assert str(err.value) == str(exc)
            refused += 1
            continue
        sub, incl = restrict(x, kept)
        assert (sub.card, sub.column, incl.comp) == expected
    assert 50 < refused < 200
