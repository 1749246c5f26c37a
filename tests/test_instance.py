from __future__ import annotations

import random

import pytest

from csetrw.errors import InvalidInstanceError, PartOutOfRangeError
from csetrw.instance import (
    CSetInstance,
    EquationFailure,
    MissingEdge,
    check_discrete_opfibration,
    elements,
    empty_instance,
    incident,
    make_instance,
    restrict,
    schema_graph,
    validate_instance,
)
from csetrw.search import is_isomorphic
from csetrw.transform import Transformation

from oracles import random_acyclic_schema, random_instance


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
