from __future__ import annotations

import random
import time

import pytest

from csetrw.errors import CyclicSchemaError, EndpointMismatchError
from csetrw.schema import (
    Generator,
    SchemaPath,
    SchemaPresentation,
    hom_paths,
    is_acyclic,
    paths_equal,
    validate_schema,
    without_equations,
)

from oracles import random_acyclic_schema


def test_wellformed_schemas_validate(graph, d2):
    assert validate_schema(graph) == []
    assert validate_schema(d2) == []


def test_unknown_domain_is_reported():
    s = SchemaPresentation(["V"], [Generator("f", "W", "V")])
    violations = validate_schema(s)
    assert len(violations) == 1
    assert "W" in violations[0]


def test_duplicate_names_are_reported():
    s = SchemaPresentation(["V", "V"], [Generator("V", "V", "V")])
    messages = " ".join(validate_schema(s))
    assert "duplicate" in messages and "not unique" in messages


def test_equation_endpoint_mismatch_is_reported():
    s = SchemaPresentation(
        ["A", "B"],
        [Generator("f", "A", "B")],
        [(SchemaPath("A", ("f",)), SchemaPath("A", ()))],
    )
    assert any("endpoints differ" in v for v in validate_schema(s))


def test_acyclicity(graph, d2):
    assert is_acyclic(graph)
    assert is_acyclic(d2)
    loop = SchemaPresentation(["X"], [Generator("f", "X", "X")])
    assert not is_acyclic(loop)
    cycle = SchemaPresentation(
        ["A", "B"], [Generator("f", "A", "B"), Generator("g", "B", "A")]
    )
    assert not is_acyclic(cycle)


def _chain(n: int, closed: bool) -> SchemaPresentation:
    objects = [f"O{i}" for i in range(n)]
    gens = [Generator(f"g{i}", objects[i], objects[i + 1]) for i in range(n - 1)]
    if closed:
        gens.append(Generator("back", objects[-1], objects[0]))
    return SchemaPresentation(objects, gens)


def test_acyclicity_of_long_chains_needs_no_recursion():
    assert is_acyclic(_chain(1200, closed=False))
    assert not is_acyclic(_chain(1200, closed=True))


def test_on_cycle_means_the_codomain_reaches_the_domain():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 5)
        objects = [f"O{i}" for i in range(n)]
        gens = [
            Generator(f"g{k}", rng.choice(objects), rng.choice(objects))
            for k in range(rng.randint(0, 6))
        ]
        s = SchemaPresentation(objects, gens)
        reach = {o: {o} for o in objects}
        for _ in objects:  # n rounds of relaxation reach every path
            for g in gens:
                reach[g.dom] |= reach[g.cod]
        assert [s.on_cycle(g) for g in gens] == [g.dom in reach[g.cod] for g in gens]
        assert is_acyclic(s) == (not any(g.dom in reach[g.cod] for g in gens))


def test_reach_counts_the_objects_each_object_reaches():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(1, 9)
        objects = [f"O{i}" for i in range(n)]
        gens = [
            Generator(f"g{k}", rng.choice(objects), rng.choice(objects))
            for k in range(rng.randint(0, 14))
        ]
        s = SchemaPresentation(objects, gens)
        reach = {o: {o} for o in objects}
        for _ in objects:  # n rounds of relaxation reach every path
            for g in gens:
                reach[g.dom] |= reach[g.cod]
        assert s._reach == {o: len(reach[o]) for o in objects}
        assert s.sources_first == sorted(objects, key=lambda o: -len(reach[o]))


def test_reach_of_a_long_chain_takes_linear_time():
    # one search per object took about 0.1 s on this chain; the components' bitsets take a few ms
    elapsed = []
    for closed in (False, True, False):
        s = _chain(1600, closed)
        start = time.perf_counter()
        reach = s._reach
        elapsed.append(time.perf_counter() - start)
        assert reach["O0"] == 1600 and reach["O1599"] == (1600 if closed else 1)
    assert min(elapsed) < 0.02, elapsed


def test_hom_paths_graph_schema(graph):
    classes = hom_paths(graph, "E", "V")
    assert [cls[0].components for cls in classes] == [("src",), ("tgt",)]


def test_hom_paths_identity_class(graph, d2):
    for schema, obj in [(graph, "V"), (graph, "E"), (d2, "T")]:
        classes = hom_paths(schema, obj, obj)
        assert [cls[0].components for cls in classes] == [()]


def test_hom_paths_delta2_merges_by_equations(d2):
    # brute expectation: six length-2 paths T -> V collapse to three corners
    classes = hom_paths(d2, "T", "V")
    assert len(classes) == 3
    assert sorted(len(cls) for cls in classes) == [2, 2, 2]
    covered = {p.components for cls in classes for p in cls}
    assert covered == {
        ("d0", "src"), ("d1", "src"),
        ("d0", "tgt"), ("d2", "tgt"),
        ("d1", "tgt"), ("d2", "src"),
    }


def test_paths_equal_delta2(d2):
    assert paths_equal(d2, SchemaPath("T", ("d1", "tgt")), SchemaPath("T", ("d2", "src")))
    assert not paths_equal(d2, SchemaPath("T", ("d1", "tgt")), SchemaPath("T", ("d0", "tgt")))


def test_paths_equal_free_schema(graph):
    assert not paths_equal(graph, SchemaPath("E", ("src",)), SchemaPath("E", ("tgt",)))
    assert paths_equal(graph, SchemaPath("E", ("src",)), SchemaPath("E", ("src",)))


def test_paths_equal_rejects_mismatched_endpoints(graph):
    with pytest.raises(EndpointMismatchError):
        paths_equal(graph, SchemaPath("E", ("src",)), SchemaPath("E", ()))


def test_cyclic_schema_refuses_path_enumeration():
    loop = SchemaPresentation(["X"], [Generator("f", "X", "X")])
    with pytest.raises(CyclicSchemaError):
        hom_paths(loop, "X", "X")


def test_paths_along_a_long_chain():
    # O0 -> O1 -> ... -> O1499, plus a shortcut h: O1498 -> O1499 equal to g1498
    objects = [f"O{i}" for i in range(1500)]
    gens = [Generator(f"g{i}", a, b) for i, (a, b) in enumerate(zip(objects, objects[1:]))]
    gens.append(Generator("h", objects[-2], objects[-1]))
    plain = SchemaPath("O0", tuple(g.name for g in gens[:-1]))
    detour = SchemaPath("O0", plain.components[:-1] + ("h",))
    last, shortcut = (SchemaPath(objects[-2], (g.name,)) for g in gens[-2:])
    s = SchemaPresentation(objects, gens, [(last, shortcut)])
    assert hom_paths(s, "O0", objects[-1]) == [[plain, detour]]
    assert paths_equal(s, plain, detour)
    assert not paths_equal(without_equations(s), plain, detour)


def test_hom_paths_rejects_unknown_objects(graph):
    for a, b in [("W", "V"), ("E", "W")]:
        with pytest.raises(ValueError, match="'W' is not an object"):
            hom_paths(graph, a, b)


def test_free_schema_class_count_equals_path_count():
    # with no equations, every directed path is its own class
    rng = random.Random(7)
    for _ in range(20):
        s = random_acyclic_schema(rng)
        for a in s.objects:
            for b in s.objects:
                classes = hom_paths(s, a, b)
                total_paths = sum(len(cls) for cls in classes)
                assert len(classes) == total_paths


def test_congruence_under_composition(d2):
    # pre/post composing both sides of an equation stays equal
    lhs, rhs = d2.equations[2]
    assert paths_equal(d2, lhs, rhs)
    assert lhs.components == ("d1", "tgt")
    # no generator leaves V, so only check the already-composed forms
    for eq_lhs, eq_rhs in d2.equations:
        assert paths_equal(d2, eq_lhs, eq_rhs)


def test_congruence_closed_under_random_extension():
    from csetrw.schema import path_target

    rng = random.Random(77)
    cases = 0
    while cases < 25:
        s = random_acyclic_schema(rng)
        parallel = [
            (a, b)
            for a in s.objects
            for b in s.objects
            if len(hom_paths(s, a, b)) >= 2
        ]
        if not parallel:
            continue
        a, b = rng.choice(parallel)
        classes = hom_paths(s, a, b)
        p = rng.choice(classes)[0]
        q = rng.choice(classes)[0]
        s2 = SchemaPresentation(list(s.objects), list(s.generators), [(p, q)])
        assert paths_equal(s2, p, q)
        extensions = [(p, q)]
        for _ in range(2):  # two rounds of single-generator extensions
            grown = []
            for u, v in extensions:
                for gen in s2.generators:
                    if gen.cod == u.source:
                        grown.append(
                            (
                                SchemaPath(gen.dom, (gen.name,) + u.components),
                                SchemaPath(gen.dom, (gen.name,) + v.components),
                            )
                        )
                    if gen.dom == path_target(s2, u):
                        grown.append(
                            (
                                SchemaPath(u.source, u.components + (gen.name,)),
                                SchemaPath(v.source, v.components + (gen.name,)),
                            )
                        )
            for u, v in grown:
                assert paths_equal(s2, u, v)
            extensions = grown or extensions
        cases += 1


def test_without_equations(d2):
    bare = without_equations(d2)
    assert bare.objects == d2.objects
    assert bare.generators == d2.generators
    assert bare.equations == []
    assert len(hom_paths(bare, "T", "V")) == 6


def test_sources_first_puts_objects_before_their_codomains(d2):
    assert d2.sources_first == ["T", "E", "V"]
    rng = random.Random(37)
    for _ in range(50):
        schema = random_acyclic_schema(rng)
        order = schema.sources_first
        assert sorted(order) == sorted(schema.objects)
        pos = {obj: i for i, obj in enumerate(order)}
        assert all(pos[g.dom] < pos[g.cod] for g in schema.generators)


def test_sources_first_on_cycles_starts_at_a_source_component():
    # two 2-cycles {A, B} and {C, D}, the first reaching the second
    s = SchemaPresentation(
        ["C", "D", "A", "B"],
        [
            Generator("f", "A", "B"),
            Generator("g", "B", "A"),
            Generator("h", "C", "D"),
            Generator("k", "D", "C"),
            Generator("m", "B", "C"),
        ],
    )
    order = s.sources_first
    assert sorted(order) == ["A", "B", "C", "D"]
    assert order[0] in {"A", "B"}
    loop = SchemaPresentation(["V", "E"], [Generator("next", "E", "E"), Generator("src", "E", "V")])
    assert loop.sources_first == ["E", "V"]
