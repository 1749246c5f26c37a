"""Acceptance suite: one test per criterion, one printed line each.

Derived expectations come from the brute-force oracles in `oracles.py`;
nothing here trusts the code path it is checking.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from csetrw import jsonio
from csetrw.bench import run_bench
from csetrw.colimits import (
    check_pushout_complement,
    final_pullback_complement,
    partial_map_classifier,
    pullback,
    pushout,
    pushout_complement,
)
from csetrw.instance import (
    EquationFailure,
    MissingEdge,
    MultipleEdges,
    TypedGraph,
    check_discrete_opfibration,
    elements,
    make_instance,
    schema_graph,
    validate_instance,
)
from csetrw.mesh import flip_rule, gen_mesh, quad_pattern
from csetrw.rewrite import DPO, SPO, SQPO, Rule, find_and_rewrite, rewrite_dpo, rewrite_spo, rewrite_sqpo
from csetrw.schema import delta2_schema, graph_schema, without_equations
from csetrw.search import SearchOptions, homomorphisms, is_isomorphic
from csetrw.transform import Transformation, identity, is_natural

from oracles import (
    brute_homs,
    count_partial_maps,
    is_pullback_square,
    mediating_in,
    mediating_out,
    random_acyclic_schema,
    random_closed_parts,
    random_instance,
    subinstance,
    typed_graph_minus,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"[criterion {number:02d}] {name}: PASS ({elapsed:.2f}s)")


def _small(rng, schema, limit, **kw):
    while True:
        x = random_instance(rng, schema, **kw)
        if sum(x.card.values()) <= limit:
            return x


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_opfibration_diagnosis():
    d2 = delta2_schema()
    graph = graph_schema()
    # vertices 1-3: V-typed; 4-6: the edges e1..e3; 7-8: triangles T1, T2.
    # e1 has no src edge, T1 has two d1 edges, and T2 breaks the last
    # equation (its d1 ends at vertex 1 while its d2 starts at vertex 2).
    edges = [
        (4, 1, "tgt"),
        (5, 2, "src"), (5, 3, "tgt"),
        (6, 1, "src"), (6, 3, "tgt"),
        (7, 6, "d0"), (7, 4, "d1"), (7, 5, "d1"), (7, 5, "d2"),
        (8, 6, "d0"), (8, 4, "d1"), (8, 5, "d2"),
    ]
    gen_index = {g.name: i + 1 for i, g in enumerate(d2.generators)}
    element_graph = make_instance(
        graph,
        {"V": 8, "E": len(edges)},
        {"src": [e[0] for e in edges], "tgt": [e[1] for e in edges]},
    )
    typing = Transformation(
        element_graph,
        schema_graph(d2),
        {"V": [1, 1, 1, 2, 2, 2, 3, 3], "E": [gen_index[e[2]] for e in edges]},
    )
    with criterion(1, "typed-graph diagnosis names all three defects", budget=1.0):
        result = check_discrete_opfibration(TypedGraph(element_graph, typing, d2))
        assert isinstance(result, list)
        assert sorted(result, key=str) == sorted(
            [MultipleEdges("d1", 7), MissingEdge("src", 4), EquationFailure(2, 8)],
            key=str,
        )


# -- 2 ----------------------------------------------------------------------


def _vertex_copy_case(schema):
    host = make_instance(
        schema,
        {"V": 3, "E": 3, "T": 1},
        {"src": [1, 1, 2], "tgt": [3, 2, 3], "d0": [1], "d1": [2], "d2": [3]},
    )
    lhs = make_instance(schema, {"V": 1}, {})
    interface = make_instance(schema, {"V": 2}, {})
    collapse = Transformation(interface, lhs, {"V": [1, 1]})
    rule = Rule(collapse, collapse, kind=SQPO)
    match = Transformation(lhs, host, {"V": [1]})
    return host, rule, match


def _expected_copy_complement(schema):
    # vertices: the two copies then the untouched corners
    return make_instance(
        schema,
        {"V": 4, "E": 5, "T": 2},
        {
            "src": [1, 2, 1, 2, 3],
            "tgt": [3, 3, 4, 4, 4],
            "d0": [3, 4],
            "d1": [1, 2],
            "d2": [5, 5],
        },
    )


def _count_mediators(k_alt, n_alt, k_leg_alt, k, n, k_leg):
    """Maps u: K' -> K with u;n = n' and k';u = k, found by fiber search."""
    import itertools

    schema = k.schema
    fibers = {
        obj: [
            [z for z in k.parts(obj) if n.comp[obj][z - 1] == n_alt.comp[obj][y - 1]]
            for y in k_alt.parts(obj)
        ]
        for obj in schema.objects
    }
    count = 0
    pools = [
        list(itertools.product(*fibers[obj])) if fibers[obj] else [()]
        for obj in schema.objects
    ]
    for combo in itertools.product(*pools):
        comp = {obj: list(vals) for obj, vals in zip(schema.objects, combo)}
        u = Transformation(k_alt, k, comp)
        if is_natural(u):
            continue
        if k_leg_alt.compose(u) != k_leg:
            continue
        count += 1
    return count


def test_criterion_02_sqpo_copy_counts():
    with criterion(2, "SqPO copy: 2 triangles with equations, 4 without", budget=1.0):
        d2 = delta2_schema()
        host, rule, match = _vertex_copy_case(d2)
        k_leg, n_leg = final_pullback_complement(rule.l, match)
        k = n_leg.dom
        # oracle part 1: the computed square commutes and is a pullback
        assert rule.l.compose(match) == k_leg.compose(n_leg)
        assert is_pullback_square(match, n_leg, rule.l, k_leg)
        # oracle part 2: the hand-built complement is the same
        assert is_isomorphic(k, _expected_copy_complement(d2)) is not None
        # oracle part 3: enumerate alternative pullback complements and
        # check each factors through K exactly once (finality); each drops
        # copies of host parts, (host part, j) naming the j-th K-part over it
        alternatives = []
        for drop in ({}, {"T": {(1, 2)}}, {"T": {(1, 1), (1, 2)}},
                     {"T": {(1, 2)}, "E": {(1, 2), (2, 2)}},
                     {"T": {(1, 1), (1, 2)}, "E": {(1, 1), (1, 2), (2, 1), (2, 2)}}):
            kept = {
                obj: set(k.parts(obj)) - {
                    [z for z in k.parts(obj) if n_leg.comp[obj][z - 1] == h][j - 1]
                    for h, j in drop.get(obj, ())
                }
                for obj in d2.objects
            }
            from csetrw.instance import restrict

            k_alt, incl = restrict(k, kept)
            n_alt = incl.compose(n_leg)
            k_leg_alt = Transformation(
                rule.interface,
                k_alt,
                {
                    obj: [
                        incl.comp[obj].index(k_leg.comp[obj][i - 1]) + 1
                        for i in rule.interface.parts(obj)
                    ]
                    for obj in d2.objects
                },
            )
            alternatives.append((k_alt, n_alt, k_leg_alt))
        # plus one complement that is strictly bigger than necessary
        extra = make_instance(
            d2,
            {"V": k.card["V"] + 1, "E": k.card["E"], "T": k.card["T"]},
            {
                "src": list(k.column["src"]),
                "tgt": list(k.column["tgt"]),
                "d0": list(k.column["d0"]),
                "d1": list(k.column["d1"]),
                "d2": list(k.column["d2"]),
            },
        )
        n_extra = Transformation(
            extra,
            host,
            {
                "V": list(n_leg.comp["V"]) + [2],
                "E": list(n_leg.comp["E"]),
                "T": list(n_leg.comp["T"]),
            },
        )
        k_leg_extra = Transformation(rule.interface, extra, dict(k_leg.comp))
        alternatives.append((extra, n_extra, k_leg_extra))
        for k_alt, n_alt, k_leg_alt in alternatives:
            assert rule.l.compose(match) == k_leg_alt.compose(n_alt)
            assert is_pullback_square(match, n_alt, rule.l, k_leg_alt)
            assert _count_mediators(k_alt, n_alt, k_leg_alt, k, n_leg, k_leg) == 1
        # the derived count with equations enforced
        out = rewrite_sqpo(rule, match)
        assert out.result.card["T"] == 2
        # the count with the equations disabled
        bare = without_equations(d2)
        host_b, rule_b, match_b = _vertex_copy_case(bare)
        out_b = rewrite_sqpo(rule_b, match_b)
        assert out_b.result.card["T"] == 4


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_dpo_edge_flip_golden():
    with criterion(3, "DPO edge flip matches the golden mesh", budget=1.0):
        ws = jsonio.Workspace()
        ws.load(FIXTURES / "d2.json")
        golden = jsonio.parse_instance(
            json.loads((FIXTURES / "flipped_mesh_1x2.json").read_text()), ws.resolve
        )
        mesh = gen_mesh(1, 2)
        outcomes = find_and_rewrite(flip_rule(), mesh, SearchOptions(monic=True))
        assert outcomes
        # the complement drops the matched diagonal and its two triangles
        assert outcomes[0].k.card == {"V": 6, "E": 8, "T": 2}
        assert is_isomorphic(outcomes[0].result, golden) is not None
        assert validate_instance(outcomes[0].result) == []


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_hom_search_completeness():
    with criterion(4, "search equals brute-force enumeration (200 pairs)", budget=60.0):
        rng = random.Random(1004)
        schemas = [random_acyclic_schema(rng) for _ in range(3)]
        pairs = 0
        while pairs < 200:
            schema = schemas[pairs % 3]
            x = _small(rng, schema, 6, max_parts=4)
            y = _small(rng, schema, 10, max_parts=4, min_parts=1)
            assert homomorphisms(x, y) == brute_homs(x, y)
            assert homomorphisms(x, y, SearchOptions(monic=True)) == brute_homs(
                x, y, monic=True
            )
            pairs += 1


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_universal_properties():
    with criterion(5, "unique mediating maps for pushouts and pullbacks", budget=120.0):
        rng = random.Random(1005)
        done = 0
        while done < 50:
            schema = random_acyclic_schema(rng)
            a = _small(rng, schema, 4, max_parts=2)
            b = _small(rng, schema, 5, max_parts=2, min_parts=1)
            c = _small(rng, schema, 5, max_parts=2, min_parts=1)
            fs = brute_homs(a, b)
            gs = brute_homs(a, c)
            if not fs or not gs:
                continue
            f, g = rng.choice(fs), rng.choice(gs)
            po = pushout(f, g)
            z = po.apex
            cocones = [
                (u, v)
                for u in brute_homs(b, z)
                for v in brute_homs(c, z)
                if f.compose(u) == g.compose(v)
            ]
            assert cocones, "the pushout legs themselves form a cocone"
            for u, v in cocones[:4]:
                found = mediating_out(po.leg_b, po.leg_c, u, v)
                assert len(found) == 1 and found[0] == po.universal(u, v)
            done += 1
        done = 0
        while done < 50:
            schema = random_acyclic_schema(rng)
            b = _small(rng, schema, 5, max_parts=2)
            c = _small(rng, schema, 5, max_parts=2)
            d = _small(rng, schema, 4, max_parts=2, min_parts=1)
            fs = brute_homs(b, d)
            gs = brute_homs(c, d)
            if not fs or not gs:
                continue
            f, g = rng.choice(fs), rng.choice(gs)
            pb = pullback(f, g)
            cones = [
                (u, v)
                for u in brute_homs(pb.apex, b)
                for v in brute_homs(pb.apex, c)
                if u.compose(f) == v.compose(g)
            ]
            for u, v in cones[:4]:
                found = mediating_in(pb.p1, pb.p2, u, v)
                assert len(found) == 1 and found[0] == pb.universal(u, v)
            done += 1


# -- 6 ----------------------------------------------------------------------


def _random_complement_case(rng):
    schema = random_acyclic_schema(rng)
    c = random_instance(rng, schema, max_parts=3)
    b_parts = random_closed_parts(rng, c, keep_probability=0.6)
    b = subinstance(c, b_parts)
    g = Transformation(b, c, {o: sorted(b_parts[o]) for o in schema.objects})
    a_parts = random_closed_parts(rng, b, keep_probability=0.5)
    a = subinstance(b, a_parts)
    f = Transformation(a, b, {o: sorted(a_parts[o]) for o in schema.objects})
    return f, g, c


def test_criterion_06_complement_roundtrip():
    with criterion(6, "pushout of the complement rebuilds the host (100 cases)", budget=60.0):
        rng = random.Random(1006)
        done = 0
        while done < 100:
            f, g, c = _random_complement_case(rng)
            if check_pushout_complement(f, g):
                continue
            a_to_d, d_to_c = pushout_complement(f, g)
            assert is_natural(a_to_d) == [] and is_natural(d_to_c) == []
            po = pushout(f, a_to_d)
            assert is_isomorphic(po.apex, c) is not None
            done += 1


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_dangling_equivalence():
    with criterion(7, "dangling check agrees with graph-subtraction test (100 cases)"):
        rng = random.Random(1007)
        done = 0
        while done < 100:
            f, g, c = _random_complement_case(rng)
            schema = c.schema
            b = g.dom
            dangling = [
                v for v in check_pushout_complement(f, g) if hasattr(v, "generator")
            ]
            offsets = {}
            total = 0
            for obj in schema.objects:
                offsets[obj] = total
                total += c.card[obj]
            removed = {
                offsets[obj] + g.comp[obj][p - 1]
                for obj in schema.objects
                for p in b.parts(obj)
                if p not in f.image(obj)
            }
            verdict = check_discrete_opfibration(typed_graph_minus(elements(c), removed))
            structural = [
                v
                for v in (verdict if isinstance(verdict, list) else [])
                if isinstance(v, (MissingEdge, MultipleEdges))
            ]
            assert (not dangling) == (not structural)
            done += 1


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_engine_agreement():
    with criterion(8, "SPO and SqPO match DPO when DPO applies (50 cases)", budget=60.0):
        rng = random.Random(1008)
        done = 0
        while done < 50:
            schema = random_acyclic_schema(rng)
            g_inst = random_instance(rng, schema, max_parts=3)
            l_parts = random_closed_parts(rng, g_inst, keep_probability=0.4)
            lhs = subinstance(g_inst, l_parts)
            match = Transformation(
                lhs, g_inst, {o: sorted(l_parts[o]) for o in schema.objects}
            )
            i_parts = random_closed_parts(rng, lhs, keep_probability=0.6)
            interface = subinstance(lhs, i_parts)
            l = Transformation(
                interface, lhs, {o: sorted(i_parts[o]) for o in schema.objects}
            )
            r_target = random_instance(rng, schema, max_parts=2)
            rs = brute_homs(interface, r_target)
            r = rng.choice(rs) if rs and rng.random() < 0.5 else identity(interface)
            if check_pushout_complement(l, match):
                continue
            dpo = rewrite_dpo(Rule(l, r, kind=DPO), match)
            spo = rewrite_spo(Rule(l, r, kind=SPO), match)
            sqpo = rewrite_sqpo(Rule(l, r, kind=SQPO), match)
            assert is_isomorphic(dpo.result, spo.result) is not None
            assert is_isomorphic(dpo.result, sqpo.result) is not None
            assert validate_instance(dpo.result) == []
            done += 1


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_classifier_counts():
    with criterion(9, "partial maps biject with maps into the classifier (30 cases)", budget=120.0):
        rng = random.Random(1009)
        for _ in range(30):
            schema = random_acyclic_schema(rng)
            x = _small(rng, schema, 4, max_parts=2)
            a = _small(rng, schema, 4, max_parts=2)
            t = partial_map_classifier(x)
            assert count_partial_maps(a, x) == len(brute_homs(a, t.instance))


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_mesh_benchmark_counts():
    with criterion(10, "mesh match counts equal brute force; times trend upward"):
        pattern = quad_pattern()
        for rows, cols in ((2, 2), (2, 3)):
            mesh = gen_mesh(rows, cols)
            assert len(homomorphisms(pattern, mesh)) == len(brute_homs(pattern, mesh))
        table = run_bench("homsearch", [(2, 2), (2, 3), (2, 4), (2, 5)])
        counts = [row["count"] for row in table]
        assert counts[0] == len(homomorphisms(pattern, gen_mesh(2, 2)))
        times = [row["seconds"] for row in table]
        assert times == sorted(times), f"homsearch times not nondecreasing: {times}"
        # each size's first call, cold, is reported next to the median
        assert all(row["first_seconds"] > 0 for row in table + run_bench("step", [(2, 2)], "spo"))
        flips = run_bench("rewrite", [(2, 2)])
        assert flips[0]["count"] == len(
            homomorphisms(pattern, gen_mesh(2, 2), SearchOptions(monic=True))
        )


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_cube_colimit():
    with criterion(11, "six faces glue into the cube surface graph", budget=1.0):
        from csetrw.open_systems import diagram_colimit
        from test_open_systems import CUBE_EDGES, cube_diagram

        graph = graph_schema()
        apex, legs = diagram_colimit(cube_diagram(graph))
        assert apex.card == {"V": 8, "E": 12}
        expected = make_instance(
            graph,
            {"V": 8, "E": 12},
            {
                "src": [v + 1 for v, _ in CUBE_EDGES],
                "tgt": [v + 1 for _, v in CUBE_EDGES],
            },
        )
        assert is_isomorphic(apex, expected) is not None


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_serialization_roundtrip():
    with criterion(12, "every fixture file round-trips byte-exactly"):
        from test_jsonio_cli import test_every_fixture_roundtrips_bit_exactly

        test_every_fixture_roundtrips_bit_exactly()
