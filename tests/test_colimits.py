from __future__ import annotations

import random
import signal

import pytest

from csetrw.colimits import (
    Classifier,
    DanglingViolation,
    Diagram,
    IdentificationViolation,
    _quotient,
    check_pushout_complement,
    classifier_map,
    coproduct,
    diagram_colimit,
    final_pullback_complement,
    partial_map_classifier,
    pullback,
    pushout,
    pushout_complement,
)
from csetrw.errors import ComplementViolationsError, CyclicSchemaError, NotMonicError
from csetrw.instance import empty_instance, make_instance, restrict, validate_instance
from csetrw.mesh import gen_mesh
from csetrw.schema import Generator, SchemaPresentation
from csetrw.search import is_isomorphic
from csetrw.transform import Transformation, factor_through, identity, is_natural

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
)


def test_pushout_glues_edges_into_path(graph):
    a = make_instance(graph, {"V": 1}, {})
    b = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    f = Transformation(a, b, {"V": [2]})
    g = Transformation(a, b, {"V": [1]})
    po = pushout(f, g)
    assert po.apex.card == {"V": 3, "E": 2}
    assert is_natural(po.leg_b) == [] and is_natural(po.leg_c) == []
    assert f.compose(po.leg_b) == g.compose(po.leg_c)


def test_pushout_along_identity(graph, small_graph):
    a = make_instance(graph, {"V": 1}, {})
    f = Transformation(a, small_graph, {"V": [3]})
    po = pushout(f, identity(a))
    assert is_isomorphic(po.apex, small_graph) is not None


def test_pushout_along_a_monic_f_appends_b_to_c(graph):
    # B and C are edges; f picks B's target, g C's source
    a = make_instance(graph, {"V": 1}, {})
    edge = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    f, g = Transformation(a, edge, {"V": [2]}), Transformation(a, edge, {"V": [1]})
    po = pushout(f, g)
    # C's parts keep their ids; B's source and edge come after them
    assert (po.apex.card, po.apex.column) == ({"V": 3, "E": 2}, {"src": [1, 3], "tgt": [2, 1]})
    assert (po.leg_c.comp, po.leg_b.comp) == ({"V": [1, 2], "E": [1]}, {"V": [3, 1], "E": [2]})
    assert f.append_program is not None and f.append_program is f.append_program
    apex, legs = _quotient([edge, edge], [(1, 0, f.comp, g.comp)])
    assert (apex.card, apex.column, legs) == (po.apex.card, po.apex.column, [po.leg_c.comp, po.leg_b.comp])


def test_pushout_of_empty_is_coproduct(graph, small_graph):
    e = empty_instance(graph)
    po = pushout(Transformation(e, small_graph, {}), Transformation(e, small_graph, {}))
    assert po.apex.card == {"V": 6, "E": 6}


def test_pushout_universal_property(graph, small_graph):
    a = make_instance(graph, {"V": 1}, {})
    b = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    f = Transformation(a, b, {"V": [2]})
    g = Transformation(a, b, {"V": [1]})
    po = pushout(f, g)
    # cocone into the path graph itself via the legs is mediated by identity
    med = po.universal(po.leg_b, po.leg_c)
    assert med == identity(po.apex)
    with pytest.raises(ValueError):
        po.universal(po.leg_b, po.leg_b)


def test_coproduct_injections(graph, small_graph):
    apex, (i1, i2) = coproduct([small_graph, small_graph])
    assert apex.card == {"V": 6, "E": 6}
    assert i1.comp["V"] == [1, 2, 3] and i2.comp["V"] == [4, 5, 6]
    assert is_natural(i1) == [] and is_natural(i2) == []


def test_pushout_coproduct_and_diagram_colimit_share_one_numbering():
    rng = random.Random(41)
    spans = 0
    for _ in range(60):
        schema = random_acyclic_schema(rng)
        xs = [random_instance(rng, schema, max_parts=3) for _ in range(rng.randint(1, 3))]
        total, injections = coproduct(xs)
        apex, legs = diagram_colimit(Diagram([(f"x{i}", x) for i, x in enumerate(xs)], []))
        assert apex == total
        assert [legs[f"x{i}"] for i in range(len(xs))] == injections
        a, b, c = (random_instance(rng, schema, max_parts=n) for n in (2, 3, 3))
        fs, gs = brute_homs(a, b), brute_homs(a, c)
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        po = pushout(f, g)
        # a pushout stacks C before B; the apex of A stacks last, so every
        # class's smallest part lies in C or B
        span = Diagram([("C", c), ("B", b), ("A", a)], [("A", "B", f), ("A", "C", g)])
        apex, legs = diagram_colimit(span)
        assert apex == po.apex
        assert legs["B"] == po.leg_b and legs["C"] == po.leg_c
        assert legs["A"] == f.compose(po.leg_b)
        spans += 1
    assert spans >= 20


def test_pullback_identity(graph, small_graph):
    pb = pullback(identity(small_graph), identity(small_graph))
    assert is_isomorphic(pb.apex, small_graph) is not None


def test_pullback_of_empties(graph):
    e = empty_instance(graph)
    pb = pullback(Transformation(e, e, {}), Transformation(e, e, {}))
    assert pb.apex.card == {"V": 0, "E": 0}


def test_pullback_product_of_cycles(graph):
    loop = make_instance(graph, {"V": 1, "E": 1}, {"src": [1], "tgt": [1]})
    c2 = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    t = Transformation(c2, loop, {"V": [1, 1], "E": [1, 1]})
    pb = pullback(t, t)
    # oracle: direct pair filter
    pairs_v = [(b, c) for b in (1, 2) for c in (1, 2)]
    assert pb.apex.card["V"] == len(pairs_v)
    assert pb.apex.card["E"] == 4
    assert is_pullback_square(t, t, pb.p1, pb.p2)


def test_pullback_universal_property(graph):
    loop = make_instance(graph, {"V": 1, "E": 1}, {"src": [1], "tgt": [1]})
    c2 = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    t = Transformation(c2, loop, {"V": [1, 1], "E": [1, 1]})
    pb = pullback(t, t)
    med = pb.universal(identity(c2), identity(c2))
    assert med.compose(pb.p1) == identity(c2)
    assert med.compose(pb.p2) == identity(c2)


def test_identification_condition(graph):
    # collapse two vertices not preserved by the rule
    a = empty_instance(graph)
    b = make_instance(graph, {"V": 2}, {})
    c = make_instance(graph, {"V": 1}, {})
    f = Transformation(a, b, {})
    g = Transformation(b, c, {"V": [1, 1]})
    violations = check_pushout_complement(f, g)
    assert violations == [IdentificationViolation("V", 1, 2)]


def test_dangling_condition(graph, small_graph):
    # delete vertex 1, which edge 1 leaves from
    a = empty_instance(graph)
    b = make_instance(graph, {"V": 1}, {})
    f = Transformation(a, b, {})
    g = Transformation(b, small_graph, {"V": [1]})
    violations = check_pushout_complement(f, g)
    assert violations == [DanglingViolation("src", 1)]


def test_iso_first_leg_means_no_violations(small_graph):
    assert check_pushout_complement(identity(small_graph), identity(small_graph)) == []


def test_check_requires_monic(graph):
    b = make_instance(graph, {"V": 1}, {})
    a = make_instance(graph, {"V": 2}, {})
    with pytest.raises(NotMonicError):
        check_pushout_complement(Transformation(a, b, {"V": [1, 1]}), identity(b))


def test_pushout_complement_identity(small_graph):
    a_to_d, d_to_c = pushout_complement(identity(small_graph), identity(small_graph))
    assert is_isomorphic(a_to_d.cod, small_graph) is not None


def test_pushout_complement_full_deletion(graph):
    a = empty_instance(graph)
    b = make_instance(graph, {"V": 1}, {})
    c = make_instance(graph, {"V": 1}, {})
    a_to_d, d_to_c = pushout_complement(Transformation(a, b, {}), identity(b))
    assert d_to_c.dom.card == {"V": 0, "E": 0}


def test_pushout_complement_refuses(graph, small_graph):
    a = empty_instance(graph)
    b = make_instance(graph, {"V": 1}, {})
    with pytest.raises(ComplementViolationsError):
        pushout_complement(Transformation(a, b, {}), Transformation(b, small_graph, {"V": [1]}))


def test_complement_roundtrip_randomized():
    rng = random.Random(17)
    done = 0
    while done < 30:
        schema = random_acyclic_schema(rng)
        c = random_instance(rng, schema, max_parts=3)
        b_parts = random_closed_parts(rng, c)
        b = subinstance(c, b_parts)
        g = Transformation(
            b, c, {o: sorted(b_parts[o]) for o in schema.objects}
        )
        a_parts = random_closed_parts(rng, b, keep_probability=0.5)
        a = subinstance(b, a_parts)
        f = Transformation(a, b, {o: sorted(a_parts[o]) for o in schema.objects})
        if check_pushout_complement(f, g):
            continue
        a_to_d, d_to_c = pushout_complement(f, g)
        po = pushout(f, a_to_d)
        assert is_isomorphic(po.apex, c) is not None
        done += 1


def test_classifier_of_single_vertex(graph):
    x = make_instance(graph, {"V": 1}, {})
    t = partial_map_classifier(x)
    assert t.instance.card == {"V": 2, "E": 4}
    assert validate_instance(t.instance) == []
    v_real = t.eta.comp["V"][0]
    # the four edges connect real and phantom vertices in all combinations
    endpoints = {
        (t.instance.apply("src", e), t.instance.apply("tgt", e))
        for e in t.instance.parts("E")
    }
    others = {v for v in t.instance.parts("V") if v != v_real}
    assert len(others) == 1
    phantom = others.pop()
    assert endpoints == {
        (v_real, v_real), (v_real, phantom), (phantom, v_real), (phantom, phantom)
    }


def test_classifier_of_empty_on_one_object_schema():
    one = SchemaPresentation(["X"], [])
    t = partial_map_classifier(empty_instance(one))
    assert t.instance.card == {"X": 1}


def test_classifier_rejects_cyclic_schema():
    loop = SchemaPresentation(["X"], [Generator("f", "X", "X")])
    with pytest.raises(CyclicSchemaError):
        partial_map_classifier(empty_instance(loop))


def _random_and_delta2_pairs(seed, count, d2, triangle):
    """(A, X) pairs: random ones with no equations, then delta2 pieces.

    On delta2 the equations tie each triangle's edges together, so only
    these pairs check how the classifier treats equations.
    """
    rng = random.Random(seed)
    for _ in range(count):
        schema = random_acyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=2)
        yield random_instance(rng, schema, max_parts=2), x
    edge = make_instance(d2, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    loop = make_instance(d2, {"V": 1, "E": 1}, {"src": [1], "tgt": [1]})
    yield from [(triangle, edge), (triangle, loop), (triangle, triangle), (gen_mesh(1, 1), loop)]


def test_classifier_counts_partial_maps(d2, triangle):
    for a, x in _random_and_delta2_pairs(5, 8, d2, triangle):
        t = partial_map_classifier(x)
        assert count_partial_maps(a, x) == len(brute_homs(a, t.instance))


def test_classifier_unit_is_natural():
    rng = random.Random(6)
    for _ in range(5):
        schema = random_acyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=2)
        t = partial_map_classifier(x)
        assert is_natural(t.eta) == []
        assert t.eta.is_monic()


def test_classify_partial_is_the_bijection(d2, triangle):
    # classifying every (subobject, hom) pair hits each total map into
    # T(X) exactly once
    from oracles import closed_subsets

    for a, x in _random_and_delta2_pairs(9, 6, d2, triangle):
        schema = a.schema
        t = partial_map_classifier(x)
        classified = []
        for sel in closed_subsets(a):
            sub = subinstance(a, sel)
            incl = Transformation(sub, a, {o: sorted(sel[o]) for o in schema.objects})
            for h in brute_homs(sub, x):
                total = t.classify_partial(incl, h)
                assert is_natural(total) == []
                classified.append(tuple(tuple(total.comp[o]) for o in schema.objects))
        expected = {
            tuple(tuple(h.comp[o]) for o in schema.objects)
            for h in brute_homs(a, t.instance)
        }
        assert len(classified) == len(set(classified))
        assert set(classified) == expected


def test_classifier_calls_refuse_maps_of_other_instances(graph):
    x = make_instance(graph, {"V": 1}, {})
    y = make_instance(graph, {"V": 3}, {})
    a = make_instance(graph, {"V": 1}, {})
    t_x, t_y = partial_map_classifier(x), partial_map_classifier(y)
    f = Transformation(a, y, {"V": [3], "E": []})
    with pytest.raises(ValueError, match="classified instance"):
        t_x.classify_partial(identity(a), f)
    to_y = Transformation(x, y, {"V": [3], "E": []})
    for tdom, tcod in [(t_y, t_y), (t_x, t_x), (t_y, t_x)]:
        with pytest.raises(ValueError, match="T\\(f.dom\\)"):
            classifier_map(tdom, tcod, to_y)
    assert classifier_map(t_x, t_y, to_y).cod == t_y.instance


def test_fpc_iso_rule_leg(graph, small_graph):
    k, n = final_pullback_complement(identity(small_graph), identity(small_graph))
    assert is_isomorphic(n.dom, small_graph) is not None


def test_fpc_requires_monic_match(graph):
    b = make_instance(graph, {"V": 1}, {})
    a = make_instance(graph, {"V": 2}, {})
    with pytest.raises(NotMonicError):
        final_pullback_complement(identity(a), Transformation(a, b, {"V": [1, 1]}))


@pytest.fixture()
def skewed_edge(graph, small_graph):
    """A monic map that is not natural: edge 1 -> 2 sent to edge 2, which runs 2 -> 3."""
    edge = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    return Transformation(edge, small_graph, {"V": [1, 2], "E": [2]})


def test_pushout_refuses_a_non_natural_leg(skewed_edge):
    with pytest.raises(ValueError, match="pushout legs must be natural"):
        pushout(skewed_edge, identity(skewed_edge.dom))


def test_pullback_refuses_a_non_natural_leg(skewed_edge):
    with pytest.raises(ValueError, match="pullback legs must be natural"):
        pullback(skewed_edge, identity(skewed_edge.cod))


def test_fpc_refuses_a_non_natural_match(skewed_edge):
    with pytest.raises(ValueError, match="need a natural rule leg and match"):
        final_pullback_complement(identity(skewed_edge.dom), skewed_edge)


def test_fpc_vertex_deletion_cascades(graph):
    g = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    l_inst = make_instance(graph, {"V": 1}, {})
    l = Transformation(empty_instance(graph), l_inst, {})
    m = Transformation(l_inst, g, {"V": [2]})
    k, n = final_pullback_complement(l, m)
    assert n.dom.card == {"V": 2, "E": 0}
    assert is_natural(n) == []
    assert is_pullback_square(m, n, l, k)


def test_fpc_square_is_pullback_randomized():
    rng = random.Random(31)
    done = 0
    while done < 15:
        schema = random_acyclic_schema(rng)
        g = random_instance(rng, schema, max_parts=2)
        l_cod = random_instance(rng, schema, max_parts=2)
        matches = brute_homs(l_cod, g, monic=True)
        if not matches:
            continue
        m = rng.choice(matches)
        i = random_instance(rng, schema, max_parts=2)
        legs = brute_homs(i, l_cod)
        if not legs:
            continue
        l = rng.choice(legs)
        k, n = final_pullback_complement(l, m)
        assert is_natural(k) == [] and is_natural(n) == []
        assert l.compose(m) == k.compose(n)
        assert is_pullback_square(m, n, l, k)
        done += 1


def classifier_fpc(l, m):
    """The FPC as the classifier construction states it: χ pulled back along T(l).

    The pullback's pairs (G-part, T(I)-part) are then renumbered as K is:
    the first pair over each G-part takes the id `restrict` gives that
    part when the G-parts over nothing are dropped, and the other pairs
    follow in the pullback's order, which is (G-part, T(I)-part).
    """
    t_l, t_i = partial_map_classifier(l.cod), partial_map_classifier(l.dom)
    pb = pullback(t_l.classify_partial(m, identity(l.cod)), classifier_map(t_i, t_l, l))
    ref, g = pb.apex, m.cod
    _, incl = restrict(g, {o: set(pb.p1.comp[o]) for o in g.schema.objects})
    new: dict[str, list[int]] = {}
    for o in g.schema.objects:
        kept_id = {h: p for p, h in enumerate(incl.comp[o], start=1)}
        new[o], n = [], len(kept_id)
        for h in pb.p1.comp[o]:
            if h in kept_id:
                new[o].append(kept_id.pop(h))
            else:
                n += 1
                new[o].append(n)
    back = {o: sorted(ref.parts(o), key=lambda z: new[o][z - 1]) for o in g.schema.objects}
    k = make_instance(
        g.schema,
        ref.card,
        {gen.name: [new[gen.cod][ref.apply(gen.name, z) - 1] for z in back[gen.dom]] for gen in g.schema.generators},
    )
    i_to_k = pb.universal(l.compose(m), t_i.eta)
    return (
        Transformation(l.dom, k, {o: [new[o][z - 1] for z in i_to_k.comp[o]] for o in g.schema.objects}),
        Transformation(k, g, {o: [pb.p1.comp[o][z - 1] for z in back[o]] for o in g.schema.objects}),
    )


def fpc_record(i_to_k, k_to_g):
    assert i_to_k.cod is k_to_g.dom
    return k_to_g.dom.card, k_to_g.dom.column, i_to_k.comp, k_to_g.comp


def test_fpc_agrees_with_classifier_pullback():
    rng = random.Random(47)
    seen = {"monic l": 0, "non-monic l": 0, "dangling": 0, "no dangling": 0}
    for _ in range(300):
        schema = random_acyclic_schema(rng)
        g = random_instance(rng, schema, max_parts=4)
        lhs_parts = random_closed_parts(rng, g, keep_probability=0.4)
        lhs = subinstance(g, lhs_parts)
        legs = brute_homs(random_instance(rng, schema, max_parts=2), lhs) if rng.random() < 0.3 else []
        if legs:
            l = rng.choice(legs)
        else:  # one subobject of L, or two side by side: L's parts in both are cloned
            subs = [random_closed_parts(rng, lhs, keep_probability=0.5) for _ in range(rng.randint(1, 2))]
            interface, _ = coproduct([subinstance(lhs, parts) for parts in subs])
            l = Transformation(interface, lhs, {o: [p for parts in subs for p in sorted(parts[o])] for o in schema.objects})
        # a disjoint padding, before or after G, that no path joins to the match
        summands = [g, random_instance(rng, schema, max_parts=3)]
        if rng.random() < 0.5:
            summands.reverse()
        host, injections = coproduct(summands)
        in_g = Transformation(lhs, g, {o: sorted(lhs_parts[o]) for o in schema.objects})
        m = in_g.compose(injections[summands.index(g)])
        assert fpc_record(*final_pullback_complement(l, m)) == fpc_record(*classifier_fpc(l, m))
        seen["monic l" if l.is_monic() else "non-monic l"] += 1
        doomed = {o: {m.comp[o][p - 1] for p in lhs.parts(o)} - {m.comp[o][p - 1] for p in l.comp[o]} for o in schema.objects}
        dangling = any(
            host.column[gen.name][q - 1] in doomed[gen.cod]
            for gen in schema.generators
            for q in set(host.parts(gen.dom)) - set(m.comp[gen.dom])
        )
        seen["dangling" if dangling else "no dangling"] += 1
    assert min(seen.values()) > 30, seen


def test_fpc_agrees_with_classifier_pullback_on_mesh_clones(d2):
    one, two = make_instance(d2, {"V": 1}, {}), make_instance(d2, {"V": 2}, {})
    clone = Transformation(two, one, {"V": [1, 1]})
    mesh = gen_mesh(16, 16)
    for v in mesh.parts("V"):
        m = Transformation(one, mesh, {"V": [v]})
        assert fpc_record(*final_pullback_complement(clone, m)) == fpc_record(*classifier_fpc(clone, m))


def test_fpc_checks_endpoints_before_classifying(graph, monkeypatch):
    built = []
    monkeypatch.setattr(Classifier, "__init__", lambda self, x: built.append(x))
    a = make_instance(graph, {"V": 2}, {})
    b = make_instance(graph, {"V": 3}, {})
    with pytest.raises(ValueError, match="rule leg"):
        final_pullback_complement(identity(a), Transformation(b, b, {"V": [1, 2, 3]}))
    assert built == []


def test_pushout_universal_randomized():
    rng = random.Random(13)
    for _ in range(12):
        schema = random_acyclic_schema(rng)
        a = random_instance(rng, schema, max_parts=2)
        b = random_instance(rng, schema, max_parts=2, min_parts=1)
        c = random_instance(rng, schema, max_parts=2, min_parts=1)
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
        for u, v in cocones[:6]:
            mediators = mediating_out(po.leg_b, po.leg_c, u, v)
            assert len(mediators) == 1
            assert po.universal(u, v) == mediators[0]


def test_pullback_universal_randomized():
    rng = random.Random(29)
    for _ in range(12):
        schema = random_acyclic_schema(rng)
        b = random_instance(rng, schema, max_parts=2)
        c = random_instance(rng, schema, max_parts=2)
        d = random_instance(rng, schema, max_parts=2, min_parts=1)
        fs = brute_homs(b, d)
        gs = brute_homs(c, d)
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        pb = pullback(f, g)
        z = pb.apex
        cones = [
            (u, v)
            for u in brute_homs(z, b)
            for v in brute_homs(z, c)
            if u.compose(f) == v.compose(g)
        ]
        for u, v in cones[:6]:
            mediators = mediating_in(pb.p1, pb.p2, u, v)
            assert len(mediators) == 1
            assert pb.universal(u, v) == mediators[0]


def plain_quotient(summands, glue):
    """_quotient by a plain union-find that pushes every slot's column entry."""
    schema = summands[0].schema
    offsets, total = [], {o: 0 for o in schema.objects}
    for x in summands:
        offsets.append(dict(total))
        for o in schema.objects:
            total[o] += x.card[o]
    ids = {}
    for o in schema.objects:
        parent = list(range(total[o]))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, j, pairs in glue:
            for p, q in pairs[o]:
                a, b = sorted((find(offsets[i][o] + p - 1), find(offsets[j][o] + q - 1)))
                parent[b] = a
        roots = sorted({find(s) for s in range(total[o])})
        number = {r: k + 1 for k, r in enumerate(roots)}
        ids[o] = [number[find(s)] for s in range(total[o])]
    columns = {}
    for gen in schema.generators:
        col = [0] * (max(ids[gen.dom], default=0))
        for x, off in zip(summands, offsets):
            for p, v in enumerate(x.column[gen.name]):
                col[ids[gen.dom][off[gen.dom] + p] - 1] = ids[gen.cod][off[gen.cod] + v - 1]
        columns[gen.name] = col
    card = {o: max(ids[o], default=0) for o in schema.objects}
    legs = [{o: ids[o][off[o] : off[o] + x.card[o]] for o in schema.objects} for x, off in zip(summands, offsets)]
    return card, columns, legs


def test_quotient_agrees_with_plain_union_find():
    rng = random.Random(37)
    glued = 0
    for _ in range(300):
        schema = random_acyclic_schema(rng)
        xs = [random_instance(rng, schema, max_parts=rng.choice([0, 2, 3])) for _ in range(rng.randint(1, 6))]
        glue = []
        for _ in range(rng.randint(0, 4)):
            # i == j glues a summand to itself, and i == j == 0 merges inside the first
            i = rng.randrange(len(xs)) if rng.random() < 0.7 else 0
            j = i if rng.random() < 0.3 else rng.randrange(len(xs))
            if sum(xs[i].card.values()) <= 4:
                homs = brute_homs(xs[i], xs[j])
            else:  # too many maps to enumerate
                homs = [identity(xs[i])] if i == j else []
            if homs:
                h = rng.choice(homs)
                glue.append((i, j, {o: list(enumerate(h.comp[o], start=1)) for o in schema.objects}))
        # _quotient takes each entry's pairs as two aligned columns per object
        sides = [
            (i, j, {o: [p for p, _ in ps] for o, ps in pairs.items()}, {o: [q for _, q in ps] for o, ps in pairs.items()})
            for i, j, pairs in glue
        ]
        apex, legs = _quotient(xs, sides)
        assert (apex.card, apex.column, legs) == plain_quotient(xs, glue)
        glued += bool(glue)
    assert glued > 150


def test_pushout_copy_path_agrees_with_mapping_path():
    """A pushout along a monic f runs `f.append_program` and keeps C's ids;
    plain_quotient pushes every entry. A non-monic f can merge parts of C,
    and then the pushout is a quotient."""
    rng = random.Random(47)
    seen = {"monic f": 0, "parts of C merge": 0}
    for _ in range(300):
        schema = random_acyclic_schema(rng)
        a, b, c = (random_instance(rng, schema, max_parts=n) for n in (2, 3, 3))
        fs, gs = brute_homs(a, b), brute_homs(a, c)
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        po = pushout(f, g)
        pairs = {o: list(zip(f.comp[o], g.comp[o])) for o in schema.objects}
        card, columns, (leg_c, leg_b) = plain_quotient([c, b], [(1, 0, pairs)])
        assert (po.apex.card, po.apex.column) == (card, columns)
        assert (po.leg_c.comp, po.leg_b.comp) == (leg_c, leg_b)
        keeps_ids = all(leg_c[o] == list(c.parts(o)) for o in schema.objects)
        if f.is_monic():
            assert keeps_ids
            seen["monic f"] += 1
        seen["parts of C merge"] += not keeps_ids
    assert min(seen.values()) >= 20, seen


def mesh_cells_diagram(mesh):
    """One node per triangle and per edge of `mesh`, each the closed piece
    around it, with an arrow from every edge to each triangle it bounds."""
    nodes, arrows, incl = [], [], {}

    def piece(node, kept):
        sub, incl[node] = restrict(mesh, kept)
        nodes.append((node, sub))

    for t in mesh.parts("T"):
        edges = {mesh.column[d][t - 1] for d in ("d0", "d1", "d2")}
        piece(f"t{t}", {"T": {t}, "E": edges, "V": {mesh.column[g][e - 1] for e in edges for g in ("src", "tgt")}})
    for e in mesh.parts("E"):
        piece(f"e{e}", {"E": {e}, "V": {mesh.column["src"][e - 1], mesh.column["tgt"][e - 1]}})
    labels = dict(nodes)
    for t in mesh.parts("T"):
        local = {o: {g: i + 1 for i, g in enumerate(incl[f"t{t}"].comp[o])} for o in ("V", "E")}
        for d in ("d0", "d1", "d2"):
            e = mesh.column[d][t - 1]
            comp = {o: [local[o][g] for g in incl[f"e{e}"].comp[o]] for o in ("V", "E")}
            arrows.append((f"e{e}", f"t{t}", Transformation(labels[f"e{e}"], labels[f"t{t}"], comp)))
    return Diagram(nodes, arrows)


def test_mesh_cells_diagram_rebuilds_the_mesh():
    mesh = gen_mesh(16, 16)
    d = mesh_cells_diagram(mesh)
    xs = [x for _, x in d.nodes]
    position = {node: i for i, (node, _) in enumerate(d.nodes)}
    glue = [(position[s], position[t], {o: list(enumerate(h.comp[o], start=1)) for o in h.comp}) for s, t, h in d.arrows]
    apex, legs = _quotient(xs, [(position[s], position[t], None, h.comp) for s, t, h in d.arrows])
    assert (apex.card, apex.column, legs) == plain_quotient(xs, glue)
    total, node_legs = diagram_colimit(d)
    assert total == apex and [node_legs[node].comp for node, _ in d.nodes] == legs
    assert apex.card == mesh.card
    assert is_isomorphic(apex, mesh)


def test_quotient_of_a_worst_case_union_chain_is_fast():
    """20,000 pairs: a 10,000-slot chain built deepest link first, then
    every slot glued again to the far end, which a union-find without
    path compression walks in quadratic time."""
    one = SchemaPresentation(["V"], [], [])
    n = 10_001
    x = make_instance(one, {"V": n}, {})
    lefts = list(range(n - 1, 0, -1)) + list(range(n, 1, -1))
    rights = list(range(n, 1, -1)) + [1] * (n - 1)
    assert len(lefts) == 20_000

    def expire(signum, frame):
        raise TimeoutError("the union chain took longer than 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        apex, (leg,) = _quotient([x], [(0, 0, {"V": lefts}, {"V": rights})])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert apex.card == {"V": 1} and leg == {"V": [1] * n}


def test_colimit_outputs_share_no_list_with_their_inputs(graph, small_graph):
    def lists_of(*things):
        return [col for t in things for col in (t.comp if isinstance(t, Transformation) else t.column).values()]

    f = Transformation(empty_instance(graph), small_graph, {})
    po = pushout(f, f)
    total, (inj,) = coproduct([small_graph])
    loop = identity(small_graph)
    apex, legs = diagram_colimit(Diagram([("x", small_graph)], [("x", "x", loop)]))
    inputs = {id(col) for col in lists_of(f, loop, small_graph, empty_instance(graph))}
    outputs = lists_of(po.apex, po.leg_b, po.leg_c, total, inj, apex, *legs.values())
    assert len(outputs) == 14 and not inputs.intersection(map(id, outputs))
    assert all(col == small_graph.column[g] for g, col in total.column.items())


def walk_complement_check(f, g):
    """check_pushout_complement's violations by the scan of every column it replaced."""
    out, deleted = [], {}
    c = g.cod
    for obj in f.dom.schema.objects:
        preserved, seen = f.image(obj), {}
        deleted[obj] = set()
        for part in f.cod.parts(obj):
            image = g.comp[obj][part - 1]
            if part not in preserved:
                deleted[obj].add(image)
            if image in seen:
                if not (seen[image] in preserved and part in preserved):
                    out.append(IdentificationViolation(obj, seen[image], part))
            else:
                seen[image] = part
    for gen in c.schema.generators:
        for part in c.parts(gen.dom):
            if c.apply(gen.name, part) in deleted[gen.cod] and part not in deleted[gen.dom]:
                out.append(DanglingViolation(gen.name, part))
    return out


def test_complement_agrees_with_column_scan():
    rng = random.Random(43)
    built = refused = 0
    for _ in range(300):
        schema = random_acyclic_schema(rng)
        c = random_instance(rng, schema, max_parts=4)
        b = random_instance(rng, schema, max_parts=2)
        homs = brute_homs(b, c)
        if not homs:
            continue
        g = rng.choice(homs)  # not always monic: identification can fail too
        a_parts = random_closed_parts(rng, b, keep_probability=0.5)
        a = subinstance(b, a_parts)
        f = Transformation(a, b, {o: sorted(a_parts[o]) for o in schema.objects})
        expected = walk_complement_check(f, g)
        assert check_pushout_complement(f, g) == expected
        if expected:
            with pytest.raises(ComplementViolationsError) as err:
                pushout_complement(f, g)
            assert err.value.violations == expected
            refused += 1
            continue
        a_to_d, d_to_c = pushout_complement(f, g)
        deleted = {o: set(c.parts(o)) - set(d_to_c.comp[o]) for o in schema.objects}
        sub, incl = restrict(c, {o: set(c.parts(o)) - deleted[o] for o in schema.objects})
        assert (d_to_c.dom, d_to_c.comp) == (sub, incl.comp)
        assert a_to_d == factor_through(f.compose(g), d_to_c)
        built += 1
    assert built > 50 and refused > 50
