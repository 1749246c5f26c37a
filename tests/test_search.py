from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from itertools import chain, permutations

import pytest

from csetrw import search as search_module
from csetrw.errors import PartOutOfRangeError
from csetrw.instance import empty_instance, make_instance
from csetrw.mesh import gen_mesh, quad_pattern
from csetrw.search import SearchOptions, homomorphisms, is_isomorphic
from csetrw.transform import Transformation, identity, is_natural

from oracles import brute_homs, random_acyclic_schema, random_cyclic_schema, random_instance, random_pins


@contextmanager
def within(seconds: float):
    """Fail the block if it runs longer than `seconds`, even if it never ends."""

    def expire(signum, frame):
        raise TimeoutError(f"search took longer than {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_is_natural_identity(small_graph):
    assert is_natural(identity(small_graph)) == []


def test_is_natural_detects_mismatch(small_graph):
    t = Transformation(small_graph, small_graph, {"V": [1, 2, 3], "E": [2, 1, 1]})
    violations = is_natural(t)
    assert violations
    # edge 1 keeps endpoints 1,2 but its image edge 2 runs 2 -> 3
    assert any(v.part == 1 for v in violations)


def test_is_natural_agrees_with_a_walk_of_every_square_randomized():
    # random components, natural or not, over acyclic and cyclic schemas
    rng = random.Random(29)
    failing = 0
    for _ in range(200):
        schema = random_cyclic_schema(rng) if rng.random() < 0.5 else random_acyclic_schema(rng)
        x, y = random_instance(rng, schema), random_instance(rng, schema, min_parts=1)
        t = Transformation(x, y, {o: [rng.randint(1, y.card[o]) for _ in x.parts(o)] for o in schema.objects})
        walk = [
            (gen.name, p, t.comp[gen.cod][x.apply(gen.name, p) - 1], y.apply(gen.name, t.comp[gen.dom][p - 1]))
            for gen in schema.generators
            for p in x.parts(gen.dom)
        ]
        expected = [square for square in walk if square[2] != square[3]]
        assert [(v.generator, v.part, v.expected, v.actual) for v in is_natural(t)] == expected
        failing += bool(expected)
    assert failing > 50


def test_transformation_refuses_components_of_the_wrong_length_or_range(small_graph):
    with pytest.raises(ValueError, match="component for 'V' has wrong length"):
        Transformation(small_graph, small_graph, {"V": [1]})
    with pytest.raises(ValueError, match="component for 'V' sends 2 outside 1..3"):
        Transformation(small_graph, small_graph, {"V": [1, 4, 3], "E": [1, 2, 3]})


def test_transformation_refuses_a_component_of_an_unknown_object(small_graph):
    comp = {"V": [1, 2, 3], "E": [1, 2, 3], "Bogus": [9]}
    with pytest.raises(ValueError, match="component for 'Bogus', which is not in the schema"):
        Transformation(small_graph, small_graph, comp)


def test_is_natural_vacuous_from_empty(graph, small_graph):
    t = Transformation(empty_instance(graph), small_graph, {})
    assert is_natural(t) == []


def test_single_vertex_matches(graph, small_graph):
    x = make_instance(graph, {"V": 1}, {})
    assert len(homomorphisms(x, small_graph)) == 3


def test_single_edge_matches(graph, small_graph):
    x = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    found = homomorphisms(x, small_graph)
    assert len(found) == 3
    for t in found:
        assert is_natural(t) == []


def test_terminal_graph_absorbs(graph, small_graph):
    loop = make_instance(graph, {"V": 1, "E": 1}, {"src": [1], "tgt": [1]})
    assert len(homomorphisms(small_graph, loop)) == 1


def test_self_homs_match_brute_force(small_graph):
    assert homomorphisms(small_graph, small_graph) == brute_homs(small_graph, small_graph)


def test_monic_results_are_injective(small_graph):
    for t in homomorphisms(small_graph, small_graph, SearchOptions(monic=True)):
        for obj in ("V", "E"):
            assert len(set(t.comp[obj])) == len(t.comp[obj])
    assert homomorphisms(small_graph, small_graph, SearchOptions(monic=True)) == brute_homs(
        small_graph, small_graph, monic=True
    )


def test_limit_truncates(small_graph):
    x = make_instance(small_graph.schema, {"V": 1}, {})
    assert len(homomorphisms(x, small_graph, SearchOptions(limit=1))) == 1


def test_limit_zero_finds_nothing(small_graph):
    x = make_instance(small_graph.schema, {"V": 1}, {})
    assert homomorphisms(x, small_graph, SearchOptions(limit=0)) == []
    with pytest.raises(ValueError):
        homomorphisms(x, small_graph, SearchOptions(limit=-1))


def test_initial_assignment_pins_search(small_graph):
    x = make_instance(small_graph.schema, {"V": 1}, {})
    found = homomorphisms(x, small_graph, SearchOptions(initial={"V": {1: 2}}))
    assert len(found) == 1 and found[0].comp["V"] == [2]
    # inconsistent pin: no results rather than an error
    impossible = homomorphisms(small_graph, small_graph, SearchOptions(initial={"E": {1: 2}, "V": {1: 1}}))
    assert all(t.comp["E"][0] == 2 and t.comp["V"][0] == 1 for t in impossible)


def test_initial_pins_check_pattern_parts(small_graph):
    x = make_instance(small_graph.schema, {"V": 2}, {})
    for part in (0, 5):
        with pytest.raises(PartOutOfRangeError, match=f"part {part} outside 1..2 for 'V'"):
            homomorphisms(x, small_graph, SearchOptions(initial={"V": {part: 3}}))
    with pytest.raises(ValueError, match="pinned object 'W' is not in the schema"):
        homomorphisms(x, small_graph, SearchOptions(initial={"W": {1: 1}}))


def test_pinned_search_agrees_with_brute_force():
    rng = random.Random(37)
    found = 0
    for _ in range(80):
        schema = random_acyclic_schema(rng) if rng.random() < 0.5 else random_cyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=3)
        y = random_instance(rng, schema, max_parts=3)
        for monic in (False, True):
            homs = brute_homs(x, y, monic=monic)
            pins = random_pins(rng, x, y, homs, rng.randint(1, 3))
            expected = [
                t for t in homs
                if all(t.comp[o][p - 1] == v for o, ps in pins.items() for p, v in ps.items())
            ]
            assert homomorphisms(x, y, SearchOptions(monic=monic, initial=pins)) == expected
            found += bool(expected)
    assert found >= 40


def test_determinism_and_order(small_graph):
    a = homomorphisms(small_graph, small_graph)
    b = homomorphisms(small_graph, small_graph)
    assert a == b
    keys = [tuple(tuple(t.comp[o]) for o in small_graph.schema.objects) for t in a]
    assert keys == sorted(keys)


def test_completeness_randomized():
    rng = random.Random(23)
    for _ in range(40):
        schema = random_acyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=2)
        y = random_instance(rng, schema, max_parts=3)
        assert homomorphisms(x, y) == brute_homs(x, y)
        assert homomorphisms(x, y, SearchOptions(monic=True)) == brute_homs(x, y, monic=True)


def test_iso_permuted_copy(small_graph):
    perm = make_instance(
        small_graph.schema, {"V": 3, "E": 3}, {"src": [2, 2, 1], "tgt": [3, 3, 2]}
    )
    t = is_isomorphic(small_graph, perm)
    assert t is not None
    assert is_natural(t) == []
    for obj in ("V", "E"):
        assert sorted(t.comp[obj]) == list(small_graph.parts(obj))


def test_iso_rejects_structural_difference(small_graph):
    other = make_instance(
        small_graph.schema, {"V": 3, "E": 3}, {"src": [1, 2, 2], "tgt": [2, 3, 2]}
    )
    assert is_isomorphic(small_graph, other) is None
    assert brute_homs(small_graph, other, monic=True) == []


def test_iso_short_circuits_on_cardinality(graph):
    a = make_instance(graph, {"V": 1}, {})
    b = make_instance(graph, {"V": 2}, {})
    assert is_isomorphic(a, b) is None


def test_completeness_randomized_cyclic_schemas():
    rng = random.Random(29)
    for _ in range(60):
        schema = random_cyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=3)
        y = random_instance(rng, schema, max_parts=3)
        assert homomorphisms(x, y) == brute_homs(x, y)
        assert homomorphisms(x, y, SearchOptions(monic=True)) == brute_homs(x, y, monic=True)


def test_limit_returns_that_many_of_the_matches():
    rng = random.Random(31)
    for _ in range(30):
        schema = random_acyclic_schema(rng) if rng.random() < 0.5 else random_cyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=2)
        y = random_instance(rng, schema, max_parts=3)
        for monic in (False, True):
            full = homomorphisms(x, y, SearchOptions(monic=monic))
            for n in range(1, len(full) + 2):
                some = homomorphisms(x, y, SearchOptions(monic=monic, limit=n))
                assert len(some) == min(n, len(full))
                assert all(t in full for t in some)
                assert some == sorted(some, key=full.index)


def test_large_patterns_do_not_recurse(graph):
    assert is_isomorphic(gen_mesh(24, 24), gen_mesh(24, 24)) is not None
    n = 1200
    path = make_instance(
        graph, {"V": n + 1, "E": n}, {"src": list(range(1, n + 1)), "tgt": list(range(2, n + 2))}
    )
    assert is_isomorphic(path, path) == identity(path)


def test_mesh_searched_against_itself_finishes():
    mesh = gen_mesh(2, 2)
    with within(2.0):
        found = homomorphisms(mesh, mesh)
    assert identity(mesh) in found
    assert all(is_natural(t) == [] for t in found)
    assert len({tuple(tuple(t.comp[o]) for o in mesh.schema.objects) for t in found}) == len(found)


def test_search_pinned_at_a_vertex_finishes():
    for n in (6, 16):
        with within(2.0):
            found = homomorphisms(
                quad_pattern(), gen_mesh(n, n), SearchOptions(monic=True, initial={"V": {1: 1}})
            )
        # the corner cell, with its two triangles either way round
        assert len(found) == 2
        assert [t.comp["V"][0] for t in found] == [1, 1]


def test_a_pattern_keeps_its_plans_across_hosts():
    # one pattern object searched into host after host, against brute force
    # and against a fresh copy of the pattern, which compiles its plan anew
    rng = random.Random(43)
    seen = {"monic": 0, "unpinned": 0, "pinned": 0, "found": 0}
    for _ in range(40):
        schema = random_acyclic_schema(rng) if rng.random() < 0.5 else random_cyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=3)
        for _ in range(5):
            y = random_instance(rng, schema, max_parts=3)
            monic = rng.random() < 0.5
            homs = brute_homs(x, y, monic=monic)
            pins = random_pins(rng, x, y, homs, rng.randint(1, 3)) if rng.random() < 0.6 else {}
            expected = [
                t for t in homs
                if all(t.comp[o][p - 1] == v for o, ps in pins.items() for p, v in ps.items())
            ]
            for limit in (None, 1):
                opts = SearchOptions(monic=monic, initial=pins, limit=limit)
                cold = make_instance(schema, x.card, x.column)
                found = homomorphisms(x, y, opts)
                assert found == homomorphisms(cold, y, opts)
                if limit is None:
                    assert found == expected
                else:
                    assert len(found) == min(limit, len(expected)) and all(t in expected for t in found)
            seen["monic"] += monic
            seen["pinned" if pins else "unpinned"] += 1
            seen["found"] += bool(expected)
    assert min(seen.values()) >= 40, seen


def _leaves(value):
    if isinstance(value, (list, tuple, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _leaves(v)
    else:
        yield value


def test_a_plan_is_compiled_once_per_pattern_and_pin_keys(monkeypatch):
    compiled = []
    order = search_module._branch_order
    monkeypatch.setattr(search_module, "_branch_order", lambda x: compiled.append(x) or order(x))
    pattern, hosts = quad_pattern(), [gen_mesh(2, 3), gen_mesh(3, 2), gen_mesh(1, 1)]
    for host in hosts:
        assert len(homomorphisms(pattern, host)) == 2 * host.card["T"]  # four per cell
    assert compiled == [pattern]
    for monic in (False, True):
        for v in (1, 2, 7, 99):  # new pin values, and a value past the host's parts
            homomorphisms(pattern, hosts[0], SearchOptions(monic=monic, initial={"V": {1: v}}))
    assert len(compiled) == 2
    for pins in ({"V": {2: 1}}, {"V": {1: 1, 2: 2}}, {"V": {2: 2, 1: 1}}, {"E": {5: 3}, "V": {1: 1}}):
        homomorphisms(pattern, hosts[0], SearchOptions(initial=pins))
        homomorphisms(pattern, hosts[1], SearchOptions(initial=pins, limit=1))
    assert len(compiled) == 6 and all(x is pattern for x in compiled)
    assert set(pattern.plans) == {(), (("V", 1),), (("V", 2),), (("V", 1), ("V", 2)), (("V", 2), ("V", 1)),
                                  (("E", 5), ("V", 1))}
    homomorphisms(quad_pattern(), hosts[0])  # an equal pattern object has plans of its own
    assert len(compiled) == 7
    # a plan names host columns and indices by generator and holds no host
    assert all(v is None or type(v) in (int, str) for v in _leaves(list(pattern.plans.values())))


def test_the_plans_kept_per_pattern_are_capped_oldest_first(graph):
    # a 4-cycle into a graph with a 2-cycle and a loop, pinned at 200 distinct pin-key tuples
    x = make_instance(graph, {"V": 4, "E": 4}, {"src": [1, 2, 3, 4], "tgt": [2, 3, 4, 1]})
    y = make_instance(graph, {"V": 3, "E": 4}, {"src": [1, 2, 3, 1], "tgt": [2, 1, 3, 1]})
    homs = brute_homs(x, y)
    parts = [(o, p) for o in ("V", "E") for p in x.parts(o)]
    seen: list[tuple] = []
    for n, picked in enumerate(chain(permutations(parts, 2), permutations(parts, 3))):
        pins: dict[str, dict[int, int]] = {}
        for o, p in picked:
            pins.setdefault(o, {})[p] = homs[n % len(homs)].comp[o][p - 1]
        keys = tuple((o, p) for o, ps in pins.items() for p in ps)
        if keys in seen:
            continue
        seen.append(keys)
        expected = [t for t in homs if all(t.comp[o][p - 1] == v for o, ps in pins.items() for p, v in ps.items())]
        assert homomorphisms(x, y, SearchOptions(initial=pins)) == expected != []
        assert len(x.plans) <= search_module._PLANS
        if len(seen) == 200:
            break
    assert len(seen) == 200 and search_module._PLANS >= 16
    assert list(x.plans) == seen[-search_module._PLANS:]
    assert homomorphisms(x, y) == homs and list(x.plans) == [*seen[1 - search_module._PLANS:], ()]


def _quad_and_vertices(n: int, host_vertices: int = 0):
    """The quad pattern plus n isolated vertices (V 5..n+4), and mesh_1x2 plus host_vertices isolated ones."""
    from csetrw.colimits import coproduct

    quad, mesh = quad_pattern(), gen_mesh(1, 2)
    pattern, _ = coproduct([quad, make_instance(quad.schema, {"V": n}, {})])
    host, _ = coproduct([mesh, make_instance(mesh.schema, {"V": host_vertices}, {})])
    return quad, pattern, host


def _rows(found):
    return [tuple(tuple(t.comp[o]) for o in t.dom.schema.objects) for t in found]


def test_plans_across_chunks_count_as_products():
    # 2 quad steps and 20 vertex steps: the plan is cut into three chunks of generated loops
    quad, pattern, host = _quad_and_vertices(20)
    assert len(search_module._compile(pattern, ())[1]) == 3
    quads = homomorphisms(quad, host)
    pins = {"V": {p: 1 + p % 6 for p in range(5, 24)}}  # every vertex but the last pinned
    found = homomorphisms(pattern, host, SearchOptions(initial=pins))
    expected = sorted(
        ((*q.comp["V"], *(1 + p % 6 for p in range(5, 24)), v), tuple(q.comp["E"]), tuple(q.comp["T"]))
        for q in quads for v in range(1, 7)
    )
    assert _rows(found) == expected
    assert all(is_natural(t) == [] for t in found)
    some = homomorphisms(pattern, host, SearchOptions(initial=pins, limit=5))
    assert len(some) == 5 and all(t in found for t in some)
    # 6 ** 20 matches in all: the limit stops the search early
    some = homomorphisms(pattern, host, SearchOptions(limit=40))
    assert len(_rows(some)) == len(set(_rows(some))) == 40
    assert _rows(some) == sorted(_rows(some)) and all(is_natural(t) == [] for t in some)


def test_monic_plans_across_chunks_count_as_products():
    # the host has 6 + 22 vertices; 18 pattern vertices are pinned apart, 2 stay free
    quad, pattern, host = _quad_and_vertices(20, 22)
    pins = {"V": {p: p + 2 for p in range(5, 23)}}  # onto isolated host vertices 7..24
    quads = homomorphisms(quad, host, SearchOptions(monic=True))
    found = homomorphisms(pattern, host, SearchOptions(monic=True, initial=pins))

    def free(q):  # the host vertices neither the quad nor a pin takes: six of them
        return [v for v in range(1, 29) if v not in q.comp["V"] and not 7 <= v <= 24]

    expected = sorted(
        ((*q.comp["V"], *range(7, 25), a, b), tuple(q.comp["E"]), tuple(q.comp["T"]))
        for q in quads for a in free(q) for b in free(q) if a != b
    )
    assert len(expected) == len(quads) * 6 * 5
    assert _rows(found) == expected
    limited = homomorphisms(pattern, host, SearchOptions(monic=True, initial=pins, limit=9))
    assert len(limited) == 9 and all(t in found for t in limited)
    # no room for 24 distinct vertices in mesh_1x2: the search ends with nothing
    assert homomorphisms(pattern, gen_mesh(1, 2), SearchOptions(monic=True)) == []


def test_each_match_owns_its_component_lists():
    quad, pattern, host = _quad_and_vertices(20, 22)
    apart = {"V": {p: p + 2 for p in range(5, 23)}}  # pattern vertices 5..22 onto isolated host vertices 7..24
    assert len(search_module._compile(quad, ())[1]) == 1 and len(search_module._compile(pattern, ())[1]) > 1
    cases = [
        (quad, SearchOptions()), (quad, SearchOptions(monic=True, limit=5)), (quad, SearchOptions(initial={"V": {1: 2}})),
        (pattern, SearchOptions(limit=30)), (pattern, SearchOptions(monic=True, initial=apart)),
        (pattern, SearchOptions(monic=True, initial={"V": {**apart["V"], 1: 2}}, limit=7)),
    ]
    for x, opts in cases:
        found = homomorphisms(x, host, opts)
        rows = _rows(found)
        assert len(found) > 1 and rows == sorted(rows)
        assert all(list(t.comp) == list(x.schema.objects) for t in found)
        found[0].comp["V"][0] = 0  # another result, and a later search, keep their own lists
        assert _rows(found[1:]) == rows[1:]
        for t in found:  # a list two results or two objects shared would take two marks
            for col in t.comp.values():
                col.append(-1)
        assert all(col.count(-1) == 1 for t in found for col in t.comp.values())
        assert _rows(homomorphisms(x, host, opts)) == rows


def test_names_never_reach_the_generated_code():
    from csetrw.schema import Generator, SchemaPresentation, validate_schema

    schema = SchemaPresentation(
        ["a[0]", "for", "__import__('os')"],
        [Generator("g) or (1", "a[0]", "for"), Generator("x[-1]", "for", "__import__('os')"),
         Generator("yield", "a[0]", "__import__('os')")],
    )
    assert validate_schema(schema) == []
    rng = random.Random(47)
    for _ in range(30):
        x = random_instance(rng, schema, max_parts=2)
        y = random_instance(rng, schema, max_parts=3)
        for monic in (False, True):
            homs = brute_homs(x, y, monic=monic)
            assert homomorphisms(x, y, SearchOptions(monic=monic)) == homs
            pins = random_pins(rng, x, y, homs, 2)
            expected = [t for t in homs if all(t.comp[o][p - 1] == v for o, ps in pins.items() for p, v in ps.items())]
            assert homomorphisms(x, y, SearchOptions(monic=monic, initial=pins)) == expected
    big = random_instance(rng, schema, max_parts=12, min_parts=10)
    assert len(search_module._compile(big, ())[1]) > 1
    iso = is_isomorphic(big, big)
    assert iso is not None and is_natural(iso) == [] and iso.is_monic()


def test_monic_refuses_two_writes_of_one_object_onto_one_part(graph, d2):
    # one step assigns an edge and writes both its ends; a loop forces them onto one vertex
    edge = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    loop = make_instance(graph, {"V": 1, "E": 1}, {"src": [1], "tgt": [1]})
    assert len(homomorphisms(edge, loop)) == 1
    assert homomorphisms(edge, loop, SearchOptions(monic=True)) == []
    # a triangle writes its three edges in one step; in the host, two of them are one edge
    tri = make_instance(
        d2, {"V": 3, "E": 3, "T": 1}, {"src": [1, 1, 2], "tgt": [3, 2, 3], "d0": [1], "d1": [2], "d2": [3]}
    )
    pinch = make_instance(
        d2, {"V": 1, "E": 2, "T": 1}, {"src": [1, 1], "tgt": [1, 1], "d0": [1], "d1": [2], "d2": [2]}
    )
    assert len(homomorphisms(tri, pinch)) == 1
    assert homomorphisms(tri, pinch, SearchOptions(monic=True)) == []
    assert homomorphisms(tri, tri, SearchOptions(monic=True)) == [identity(tri)]
