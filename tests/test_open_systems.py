from __future__ import annotations

import random

import pytest

from csetrw.errors import (
    CommutativityFailureError,
    ComplementViolationsError,
    FootMismatchError,
    MatchNotNaturalError,
    TypingMismatchError,
)
from csetrw.instance import empty_instance, make_instance
from csetrw.open_systems import (
    CospanMorphism,
    Diagram,
    OpenRule,
    SliceInstance,
    StructuredCospan,
    compose_cospans,
    cset_to_slice,
    diagram_colimit,
    discrete_instance,
    identity_cospan,
    interface_objects,
    migrate_transformation,
    open_rewrite,
    slice_rewrite,
    slice_schema,
    slice_to_cset,
)
from csetrw.rewrite import DPO, KINDS, SPO, SQPO, Rule, rewrite, rewrite_dpo
from csetrw.schema import Generator, SchemaPresentation
from csetrw.search import SearchOptions, homomorphisms, is_isomorphic
from csetrw.transform import Transformation, identity, is_natural

from oracles import GRAPH, brute_homs, random_closed_parts, random_instance, random_typed_graph, subinstance


# ---------------------------------------------------------------------------
# Slices


def test_slice_schema_petri(graph):
    # two vertex kinds (states, transitions) and two edge kinds (in, out)
    g2 = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    schema = slice_schema(g2)
    assert len(schema.objects) == 4
    assert len(schema.generators) == 4
    assert schema.equations == []


def test_slice_schema_over_terminal_is_base(graph):
    terminal = make_instance(graph, {"V": 1, "E": 1}, {"src": [1], "tgt": [1]})
    schema = slice_schema(terminal)
    assert len(schema.objects) == len(graph.objects)
    patterns = sorted((g.dom, g.cod) for g in schema.generators)
    assert patterns == sorted(
        (f"{g.dom}1", f"{g.cod}1") for g in graph.generators
    )


def test_slice_schema_empty(graph):
    schema = slice_schema(empty_instance(graph))
    assert schema.objects == [] and schema.generators == []


def test_slice_schema_separates_colliding_element_names():
    # part 11 of V and part 1 of V1 would both be named V11
    schema = SchemaPresentation(["V", "V1"], [Generator("f", "V1", "V")], [])
    base = make_instance(schema, {"V": 11, "V1": 1}, {"f": [3]})
    elements = slice_schema(base)
    assert elements.objects == [f"V#{p}" for p in range(1, 12)] + ["V1#1"]
    assert [(g.name, g.dom, g.cod) for g in elements.generators] == [("f#1", "V1#1", "V#3")]
    total = make_instance(schema, {"V": 12, "V1": 2}, {"f": [3, 12]})
    s = SliceInstance(Transformation(total, base, {"V": [*range(1, 12), 3], "V1": [1, 1]}))
    migrated = slice_to_cset(s)
    assert migrated.schema == elements
    assert (migrated.instance.card["V#3"], migrated.instance.card["V1#1"]) == (2, 2)
    assert migrated.instance.column["f#1"] == [1, 2]
    back = cset_to_slice(migrated.instance, base)
    assert is_isomorphic(back.total, total) is not None
    assert slice_to_cset(back).instance == migrated.instance


def test_slice_schema_inherits_equations(d2, triangle):
    schema = slice_schema(triangle)
    # one instantiated copy of each of the three equations
    assert len(schema.equations) == 3


def test_migration_roundtrip(graph):
    g2 = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    total = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    s = SliceInstance(Transformation(total, g2, {"V": [1, 2, 1], "E": [1, 2]}))
    migrated = slice_to_cset(s)
    fiber_sizes = {key: len(parts) for key, parts in migrated.fibers.items()}
    assert fiber_sizes == {("V", 1): 2, ("V", 2): 1, ("E", 1): 1, ("E", 2): 1}
    back = cset_to_slice(migrated.instance, g2)
    assert is_isomorphic(back.total, total) is not None


def test_migration_of_identity_typing(graph):
    g2 = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    s = SliceInstance(identity(g2))
    migrated = slice_to_cset(s)
    assert all(n == 1 for n in migrated.instance.card.values())


def test_migration_of_empty_total(graph):
    g2 = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    empty = empty_instance(graph)
    s = SliceInstance(Transformation(empty, g2, {}))
    migrated = slice_to_cset(s)
    assert all(n == 0 for n in migrated.instance.card.values())


def _typed_edge_deletion(graph):
    """Rule deleting one edge of type e1 over a two-kind base."""
    base = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    lhs = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    interface = make_instance(graph, {"V": 2}, {})
    rhs = make_instance(graph, {"V": 2}, {})
    rule = Rule(
        Transformation(interface, lhs, {"V": [1, 2]}),
        Transformation(interface, rhs, {"V": [1, 2]}),
        kind=DPO,
    )
    typings = {
        "L": Transformation(lhs, base, {"V": [1, 2], "E": [1]}),
        "I": Transformation(interface, base, {"V": [1, 2]}),
        "R": Transformation(rhs, base, {"V": [1, 2]}),
    }
    return base, rule, typings


def test_slice_rewrite_direct(graph):
    base, rule, typings = _typed_edge_deletion(graph)
    host = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    t_g = Transformation(host, base, {"V": [1, 2, 1], "E": [1, 2]})
    match = Transformation(rule.lhs, host, {"V": [1, 2], "E": [1]})
    typings = dict(typings, G=t_g)
    result_slice, outcome = slice_rewrite(rule, match, typings)
    assert result_slice.total.card == {"V": 3, "E": 1}
    assert is_natural(result_slice.typing) == []


def test_slice_rewrite_identity_rule(graph):
    base = make_instance(graph, {"V": 2, "E": 2}, {"src": [1, 2], "tgt": [2, 1]})
    host = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    t_g = Transformation(host, base, {"V": [1, 2, 1], "E": [1, 2]})
    rule = Rule(identity(host), identity(host), kind=DPO)
    typings = {"L": t_g, "I": t_g, "R": t_g, "G": t_g}
    result_slice, _ = slice_rewrite(rule, identity(host), typings)
    assert is_isomorphic(result_slice.total, host) is not None
    assert result_slice.typing.compose(identity(base)) == result_slice.typing


def test_slice_rewrite_rejects_bad_typing(graph):
    base, rule, typings = _typed_edge_deletion(graph)
    host = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    bad_t_g = Transformation(host, base, {"V": [1, 2, 1], "E": [2, 1]})
    match = Transformation(rule.lhs, host, {"V": [1, 2], "E": [1]})
    with pytest.raises(TypingMismatchError):
        slice_rewrite(rule, match, dict(typings, G=bad_t_g))


def test_slice_rewrite_agrees_with_migrated_path(graph):
    base, rule, typings = _typed_edge_deletion(graph)
    host = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    t_g = Transformation(host, base, {"V": [1, 2, 1], "E": [1, 2]})
    match = Transformation(rule.lhs, host, {"V": [1, 2], "E": [1]})
    direct, _ = slice_rewrite(rule, match, dict(typings, G=t_g))

    slices = {
        "L": SliceInstance(typings["L"]),
        "I": SliceInstance(typings["I"]),
        "R": SliceInstance(typings["R"]),
        "G": SliceInstance(t_g),
    }
    migrated = {k: slice_to_cset(s) for k, s in slices.items()}
    m_l = migrate_transformation(rule.l, migrated["I"], migrated["L"], slices["I"], slices["L"])
    m_r = migrate_transformation(rule.r, migrated["I"], migrated["R"], slices["I"], slices["R"])
    m_match = migrate_transformation(match, migrated["L"], migrated["G"], slices["L"], slices["G"])
    out = rewrite_dpo(Rule(m_l, m_r, kind=DPO), m_match)
    # an isomorphism of (∫X)-sets is an isomorphism over X
    assert is_isomorphic(slice_to_cset(direct).instance, out.result) is not None
    back = cset_to_slice(out.result, base)
    assert is_isomorphic(back.total, direct.total) is not None


def _base_with_loop(rng):
    """A random graph X with at least one loop, to type instances over."""
    n = rng.randint(1, 3)
    ends = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
    loop = rng.randint(1, n)
    ends.append((loop, loop))
    return make_instance(
        GRAPH, {"V": n, "E": len(ends)}, {"src": [s for s, _ in ends], "tgt": [t for _, t in ends]}
    )


def _typed_rule(rng, t_l, kind):
    """A rule over t_l's base and its typings: l deletes vertices and edges
    (for SqPO it may also clone a vertex) and r adds loops typed by X's loops."""
    lhs, base = t_l.dom, t_l.cod
    kept = random_closed_parts(rng, lhs, keep_probability=0.6)
    interface = subinstance(lhs, kept)
    l_comp = {obj: sorted(kept[obj]) for obj in ("V", "E")}
    if kind == SQPO and interface.card["V"] and rng.random() < 0.5:
        l_comp["V"].append(rng.choice(l_comp["V"]))  # a vertex with no edges, over a kept one
        interface = make_instance(GRAPH, {"V": len(l_comp["V"]), "E": len(l_comp["E"])}, interface.column)
    l = Transformation(interface, lhs, l_comp)
    t_i = l.compose(t_l)
    loops = [
        (v, e)
        for v, t in enumerate(t_i.comp["V"], start=1)
        for e in base.parts("E")
        if base.apply("src", e) == base.apply("tgt", e) == t and rng.random() < 0.5
    ]
    rhs = make_instance(
        GRAPH,
        {"V": interface.card["V"], "E": interface.card["E"] + len(loops)},
        {name: interface.column[name] + [v for v, _ in loops] for name in ("src", "tgt")},
    )
    r = Transformation(interface, rhs, {obj: list(interface.parts(obj)) for obj in ("V", "E")})
    t_r = Transformation(rhs, base, {"V": t_i.comp["V"], "E": t_i.comp["E"] + [e for _, e in loops]})
    return Rule(l, r, kind=kind), {"L": t_l, "I": t_i, "R": t_r}


def _migrated_step(rule, match, typings):
    """The same step on the rule and match migrated to (∫X)-Set."""
    slices = {key: SliceInstance(t) for key, t in typings.items()}
    migrated = {key: slice_to_cset(s) for key, s in slices.items()}

    def move(f, dom, cod):
        return migrate_transformation(f, migrated[dom], migrated[cod], slices[dom], slices[cod])

    return rewrite(Rule(move(rule.l, "I", "L"), move(rule.r, "I", "R"), kind=rule.kind), move(match, "L", "G"))


@pytest.mark.parametrize("kind", KINDS)
def test_slice_rewrite_agrees_over_the_base(kind):
    # C-Set/X is (∫X)-Set, so a step over X must agree with the step on the
    # migrated rule and match, up to an isomorphism of (∫X)-sets
    rng = random.Random(f"slice {kind}")
    applied = partial = 0
    for _ in range(160):
        base = _base_with_loop(rng)
        t_l, t_g = random_typed_graph(rng, base, 3, 3), random_typed_graph(rng, base, 6, 8)
        rule, typings = _typed_rule(rng, t_l, kind)
        typings["G"] = t_g
        opts = SearchOptions(monic=kind == SQPO)
        matches = [m for m in homomorphisms(rule.lhs, t_g.dom, opts) if m.compose(t_g) == t_l]
        if not matches:
            continue
        match = rng.choice(matches)
        try:
            result, out = slice_rewrite(rule, match, typings)
        except ComplementViolationsError:
            with pytest.raises(ComplementViolationsError):
                _migrated_step(rule, match, typings)
            continue
        assert is_isomorphic(slice_to_cset(result).instance, _migrated_step(rule, match, typings).result) is not None
        applied += 1
        if kind == SPO and not match.is_monic() and out.maps["r_kept"].dom.card != rule.rhs.card:
            partial += 1
    assert applied >= 30
    assert kind != SPO or partial >= 10


# ---------------------------------------------------------------------------
# Structured cospans


def test_interface_objects(graph, d2):
    assert interface_objects(graph) == ["V"]
    assert interface_objects(d2) == ["V"]


def test_feet_must_be_discrete(graph, small_graph):
    with pytest.raises(ValueError):
        StructuredCospan(identity(small_graph), identity(small_graph))
    with pytest.raises(ValueError):
        discrete_instance(graph, {"E": 1})


def _open_edge(graph):
    edge = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    pt = discrete_instance(graph, {"V": 1})
    return StructuredCospan(
        Transformation(pt, edge, {"V": [1]}), Transformation(pt, edge, {"V": [2]})
    )


def test_compose_cospans_path(graph):
    a = _open_edge(graph)
    b = _open_edge(graph)
    c = compose_cospans(a, b)
    assert c.apex.card == {"V": 3, "E": 2}
    assert c.foot_in.card["V"] == 1 and c.foot_out.card["V"] == 1
    # explicit pushout oracle: the shared vertex is glued once
    assert c.apex.card["V"] == a.apex.card["V"] + b.apex.card["V"] - 1


def test_compose_with_identity_cospan(graph):
    a = _open_edge(graph)
    unit = identity_cospan(a.foot_out)
    left = compose_cospans(a, unit)
    assert is_isomorphic(left.apex, a.apex) is not None
    unit_in = identity_cospan(a.foot_in)
    right = compose_cospans(unit_in, a)
    assert is_isomorphic(right.apex, a.apex) is not None


def test_compose_foot_mismatch(graph):
    a = _open_edge(graph)
    two = identity_cospan(discrete_instance(graph, {"V": 2}))
    with pytest.raises(FootMismatchError):
        compose_cospans(a, two)


def test_compose_associative_randomized(graph):
    rng = random.Random(59)
    for _ in range(5):
        apexes = [random_instance(rng, graph, max_parts=3, min_parts=1) for _ in range(3)]
        feet = [discrete_instance(graph, {"V": 1}) for _ in range(4)]
        cospans = []
        for i, apex in enumerate(apexes):
            legs = []
            for foot in (feet[i], feet[i + 1]):
                vs = brute_homs(foot, apex)
                legs.append(rng.choice(vs))
            cospans.append(StructuredCospan(legs[0], legs[1]))
        left = compose_cospans(compose_cospans(cospans[0], cospans[1]), cospans[2])
        right = compose_cospans(cospans[0], compose_cospans(cospans[1], cospans[2]))
        assert is_isomorphic(left.apex, right.apex) is not None


def _open_edge_deletion(graph):
    """Open rule deleting one edge, empty feet."""
    nothing = empty_instance(graph)
    edge = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    twov = make_instance(graph, {"V": 2}, {})
    foot = Transformation(nothing, edge, {})
    l_csp = StructuredCospan(foot, foot)
    foot_i = Transformation(nothing, twov, {})
    i_csp = StructuredCospan(foot_i, foot_i)
    r_csp = StructuredCospan(foot_i, foot_i)
    nothing_map = Transformation(nothing, nothing, {})
    l_mor = CospanMorphism(i_csp, l_csp, Transformation(twov, edge, {"V": [1, 2]}), nothing_map, nothing_map)
    r_mor = CospanMorphism(i_csp, r_csp, identity(twov), nothing_map, nothing_map)
    return OpenRule(l_mor, r_mor)


def test_open_rewrite_interior_edge(graph):
    rule = _open_edge_deletion(graph)
    path = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    pt = discrete_instance(graph, {"V": 1})
    g_csp = StructuredCospan(
        Transformation(pt, path, {"V": [1]}), Transformation(pt, path, {"V": [3]})
    )
    nothing = empty_instance(graph)
    match = CospanMorphism(
        rule.l.cod,
        g_csp,
        Transformation(rule.l.cod.apex, path, {"V": [1, 2], "E": [1]}),
        Transformation(nothing, pt, {}),
        Transformation(nothing, pt, {}),
    )
    out = open_rewrite(rule, match)
    assert out.result.apex.card == {"V": 3, "E": 1}
    # boundary preserved: same feet as the host cospan
    assert out.result.foot_in == g_csp.foot_in
    assert out.result.foot_out == g_csp.foot_out


def test_open_rewrite_identity_feet_reduces_to_dpo(graph):
    edge = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    twov = make_instance(graph, {"V": 2}, {})
    pt = discrete_instance(graph, {"V": 1})
    l_csp = StructuredCospan(
        Transformation(pt, edge, {"V": [1]}), Transformation(pt, edge, {"V": [2]})
    )
    i_csp = StructuredCospan(
        Transformation(pt, twov, {"V": [1]}), Transformation(pt, twov, {"V": [2]})
    )
    rule = OpenRule(
        CospanMorphism(i_csp, l_csp, Transformation(twov, edge, {"V": [1, 2]}), identity(pt), identity(pt)),
        CospanMorphism(i_csp, i_csp, identity(twov), identity(pt), identity(pt)),
    )
    match = CospanMorphism(l_csp, l_csp, identity(edge), identity(pt), identity(pt))
    out = open_rewrite(rule, match)
    plain = rewrite_dpo(
        Rule(rule.l.apex_map, rule.r.apex_map, kind=DPO), identity(edge)
    )
    assert is_isomorphic(out.result.apex, plain.result) is not None


def test_open_rewrite_foot_violation(graph):
    # rule deletes one of two merged foot elements: identification failure
    nothing = empty_instance(graph)
    two_pts = discrete_instance(graph, {"V": 2})
    one_pt = discrete_instance(graph, {"V": 1})
    twov = make_instance(graph, {"V": 2}, {})
    onev = make_instance(graph, {"V": 1}, {})
    l_csp = StructuredCospan(
        Transformation(two_pts, twov, {"V": [1, 2]}), Transformation(nothing, twov, {})
    )
    i_csp = StructuredCospan(
        Transformation(one_pt, onev, {"V": [1]}), Transformation(nothing, onev, {})
    )
    rule = OpenRule(
        CospanMorphism(
            i_csp, l_csp,
            Transformation(onev, twov, {"V": [1]}),
            Transformation(one_pt, two_pts, {"V": [1]}),
            Transformation(nothing, nothing, {}),
        ),
        CospanMorphism(i_csp, i_csp, identity(onev), identity(one_pt), Transformation(nothing, nothing, {})),
    )
    g_csp = StructuredCospan(
        Transformation(one_pt, onev, {"V": [1]}), Transformation(nothing, onev, {})
    )
    match = CospanMorphism(
        l_csp, g_csp,
        Transformation(twov, onev, {"V": [1, 1]}),
        Transformation(two_pts, one_pt, {"V": [1, 1]}),
        Transformation(nothing, nothing, {}),
    )
    with pytest.raises(ComplementViolationsError) as err:
        open_rewrite(rule, match)
    assert any(level == "in" for level, _ in err.value.violations)


def test_open_rewrite_deleting_a_foot_image(graph):
    # the rule deletes a lone vertex whose host image is where the input
    # foot's point lands; the foot point survives but its apex image does not
    nothing = empty_instance(graph)
    none = Transformation(nothing, nothing, {})
    pt = discrete_instance(graph, {"V": 1})
    onev = make_instance(graph, {"V": 1}, {})
    l_csp = StructuredCospan(Transformation(nothing, onev, {}), Transformation(nothing, onev, {}))
    i_csp = StructuredCospan(none, none)
    rule = OpenRule(
        CospanMorphism(i_csp, l_csp, Transformation(nothing, onev, {}), none, none),
        CospanMorphism(i_csp, i_csp, none, none, none),
    )
    g_csp = StructuredCospan(Transformation(pt, onev, {"V": [1]}), Transformation(nothing, onev, {}))
    match = CospanMorphism(l_csp, g_csp, identity(onev), Transformation(nothing, pt, {}), none)
    with pytest.raises(CommutativityFailureError, match="surviving in foot part"):
        open_rewrite(rule, match)


def test_cospan_morphism_refuses_a_non_natural_apex_map(graph):
    # edge 1 -> 2 onto a loop at vertex 1, while vertex 2 goes to vertex 2
    rule = _open_edge_deletion(graph)
    host = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [1]})
    nothing = empty_instance(graph)
    g_csp = StructuredCospan(Transformation(nothing, host, {}), Transformation(nothing, host, {}))
    skewed = Transformation(rule.l.cod.apex, host, {"V": [1, 2], "E": [1]})
    none = Transformation(nothing, nothing, {})
    with pytest.raises(ValueError, match="apex map must be natural"):
        CospanMorphism(rule.l.cod, g_csp, skewed, none, none)
    with pytest.raises(MatchNotNaturalError):
        rewrite_dpo(Rule(rule.l.apex_map, rule.r.apex_map, kind=DPO), skewed)


# ---------------------------------------------------------------------------
# Diagrams


def test_diagram_single_node(small_graph):
    apex, legs = diagram_colimit(Diagram([("g", small_graph)], []))
    assert is_isomorphic(apex, small_graph) is not None


def test_diagram_two_nodes_no_arrows(graph, small_graph):
    apex, legs = diagram_colimit(Diagram([("a", small_graph), ("b", small_graph)], []))
    assert apex.card == {"V": 6, "E": 6}


def test_diagram_identity_arrows(small_graph):
    d = Diagram(
        [("a", small_graph), ("b", small_graph)],
        [("a", "b", identity(small_graph)), ("b", "a", identity(small_graph))],
    )
    apex, legs = diagram_colimit(d)
    assert is_isomorphic(apex, small_graph) is not None
    assert legs["a"] == legs["b"]


def test_diagram_validates_endpoints(graph, small_graph):
    other = make_instance(graph, {"V": 1}, {})
    with pytest.raises(ValueError):
        Diagram([("a", small_graph)], [("a", "zzz", identity(small_graph))])
    with pytest.raises(ValueError):
        Diagram([("a", small_graph), ("b", other)], [("a", "b", identity(small_graph))])


CUBE_EDGES = [
    (0, 1), (2, 3), (4, 5), (6, 7),
    (0, 2), (1, 3), (4, 6), (5, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
]
CUBE_FACES = {
    "x0": [0, 2, 4, 6], "x1": [1, 3, 5, 7],
    "y0": [0, 1, 4, 5], "y1": [2, 3, 6, 7],
    "z0": [0, 1, 2, 3], "z1": [4, 5, 6, 7],
}


def cube_diagram(graph):
    """Six square faces glued pairwise along their twelve edges."""
    edge_inst = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    nodes = []
    face_data = {}
    for name, verts in CUBE_FACES.items():
        vmap = {v: i + 1 for i, v in enumerate(verts)}
        edges = [e for e in CUBE_EDGES if e[0] in vmap and e[1] in vmap]
        inst = make_instance(
            graph,
            {"V": 4, "E": 4},
            {"src": [vmap[s] for s, _ in edges], "tgt": [vmap[t] for _, t in edges]},
        )
        face_data[name] = (inst, vmap, edges)
        nodes.append((name, inst))
    arrows = []
    for i, e in enumerate(CUBE_EDGES):
        node_id = f"e{i}"
        nodes.append((node_id, edge_inst))
        for name, (inst, vmap, edges) in face_data.items():
            if e in edges:
                arrows.append(
                    (
                        node_id,
                        name,
                        Transformation(
                            edge_inst,
                            inst,
                            {"V": [vmap[e[0]], vmap[e[1]]], "E": [edges.index(e) + 1]},
                        ),
                    )
                )
    return Diagram(nodes, arrows)


def test_cube_colimit(graph):
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
    for leg in legs.values():
        assert is_natural(leg) == []
