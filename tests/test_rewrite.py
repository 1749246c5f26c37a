from __future__ import annotations

import json
import random
import sys
from functools import cached_property
from pathlib import Path

import pytest

from csetrw import colimits
from csetrw import instance as instance_module
from csetrw.colimits import (
    Classifier,
    _into_restriction,
    _pushout,
    _quotient,
    check_pushout_complement,
    coproduct,
    final_pullback_complement,
    pushout,
)
from csetrw.errors import (
    ComplementViolationsError,
    CyclicSchemaError,
    MatchNotNaturalError,
    NotMonicError,
    PartOutOfRangeError,
)
from csetrw.instance import (
    CSetInstance,
    _restrict_removing,
    check_discrete_opfibration,
    deletion_closure,
    elements,
    empty_instance,
    make_instance,
    restrict,
    validate_instance,
)
from csetrw.instance import MissingEdge, MultipleEdges
from csetrw.jsonio import Workspace, parse_rule
from csetrw.mesh import flip_rule, gen_mesh, quad_pattern_flipped
from csetrw.rewrite import (
    DPO,
    SPO,
    SQPO,
    RewriteOutcome,
    Rule,
    find_and_rewrite,
    rewrite,
    rewrite_dpo,
    rewrite_spo,
    rewrite_sqpo,
)
from csetrw.schema import Generator, SchemaPresentation
from csetrw.search import SearchOptions, homomorphisms, is_isomorphic
from csetrw.transform import Transformation, factor_through, identity, is_natural

from oracles import (
    brute_homs,
    loop_graph_schema,
    random_acyclic_schema,
    random_closed_parts,
    random_cyclic_schema,
    random_instance,
    subinstance,
    typed_graph_minus,
)


def vertex_delete_rule(graph, kind):
    lhs = make_instance(graph, {"V": 1}, {})
    interface = empty_instance(graph)
    return Rule(
        Transformation(interface, lhs, {}),
        Transformation(interface, empty_instance(graph), {}),
        kind=kind,
    )


def test_dpo_identity_rule(small_graph):
    rule = Rule(identity(small_graph), identity(small_graph), kind=DPO)
    out = rewrite_dpo(rule, identity(small_graph))
    assert is_isomorphic(out.result, small_graph) is not None
    for t in out.maps.values():
        assert is_natural(t) == []


def test_dpo_refuses_dangling_match(graph, small_graph):
    rule = vertex_delete_rule(graph, DPO)
    match = Transformation(rule.lhs, small_graph, {"V": [2]})
    with pytest.raises(ComplementViolationsError) as err:
        rewrite_dpo(rule, match)
    assert err.value.violations


def test_dpo_rejects_unnatural_match(graph, small_graph):
    rule = Rule(identity(small_graph), identity(small_graph), kind=DPO)
    bad = Transformation(small_graph, small_graph, {"V": [1, 1, 1], "E": [1, 2, 3]})
    with pytest.raises(MatchNotNaturalError):
        rewrite_dpo(rule, bad)


def test_rule_refuses_non_natural_legs_when_built(graph, small_graph):
    edge = make_instance(graph, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    skewed = Transformation(edge, small_graph, {"V": [1, 2], "E": [2]})  # edge 2 runs 2 -> 3
    with pytest.raises(ValueError, match="rule legs must be natural"):
        Rule(identity(edge), skewed, kind=DPO)


def test_dpo_edge_flip(two_triangles):
    rule = flip_rule()
    matches = homomorphisms(rule.lhs, two_triangles, SearchOptions(monic=True))
    assert len(matches) == 2
    out = rewrite_dpo(rule, matches[0])
    assert out.k.card == {"V": 4, "E": 4, "T": 0}
    assert is_isomorphic(out.result, quad_pattern_flipped()) is not None
    assert validate_instance(out.result) == []


def test_dpo_flip_reversibility(two_triangles):
    rule = flip_rule()
    reverse = Rule(rule.r, rule.l, kind=DPO)
    match = homomorphisms(rule.lhs, two_triangles, SearchOptions(monic=True))[0]
    out = rewrite_dpo(rule, match)
    # the rewritten-in right-hand side is the match for the reverse rule
    back = rewrite_dpo(reverse, out.maps["r_to_result"])
    assert is_isomorphic(back.result, two_triangles) is not None


def test_spo_deletes_in_unknown_context(graph):
    g = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    rule = vertex_delete_rule(graph, SPO)
    out = rewrite_spo(rule, Transformation(rule.lhs, g, {"V": [2]}))
    assert out.result.card == {"V": 2, "E": 0}
    assert validate_instance(out.result) == []


def test_spo_cascades_through_triangles(d2, triangle):
    # deleting one boundary edge also deletes the triangle above it
    lhs = make_instance(d2, {"V": 2, "E": 1}, {"src": [1], "tgt": [2]})
    interface = make_instance(d2, {"V": 2}, {})
    rule = Rule(
        Transformation(interface, lhs, {"V": [1, 2]}),
        Transformation(interface, make_instance(d2, {"V": 2}, {}), {"V": [1, 2]}),
        kind=SPO,
    )
    match = Transformation(lhs, triangle, {"V": [1, 2], "E": [2]})
    out = rewrite_spo(rule, match)
    assert out.result.card == {"V": 3, "E": 2, "T": 0}


def test_spo_identity_rule(small_graph):
    rule = Rule(identity(small_graph), identity(small_graph), kind=SPO)
    out = rewrite_spo(rule, identity(small_graph))
    assert is_isomorphic(out.result, small_graph) is not None


def test_spo_deletion_wins_over_preservation(graph):
    # the match collapses a preserved vertex onto a deleted one; the
    # partial-map pushout removes it rather than resurrecting a copy
    g = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    lhs = make_instance(graph, {"V": 2}, {})
    interface = make_instance(graph, {"V": 1}, {})
    rule = Rule(
        Transformation(interface, lhs, {"V": [1]}),
        Transformation(interface, make_instance(graph, {"V": 1}, {}), {"V": [1]}),
        kind=SPO,
    )
    match = Transformation(lhs, g, {"V": [2, 2]})
    out = rewrite_spo(rule, match)
    assert out.result.card == {"V": 2, "E": 0}
    # the right-hand side's surviving piece is empty
    assert out.maps["r_kept"].dom.card == {"V": 0, "E": 0}


def test_spo_deadness_spreads_through_r_identifications(graph):
    # r merges a deleted interface vertex with a live one; both must go
    g = make_instance(graph, {"V": 2}, {})
    lhs = make_instance(graph, {"V": 3}, {})
    interface = make_instance(graph, {"V": 2}, {})
    rhs = make_instance(graph, {"V": 1}, {})
    rule = Rule(
        Transformation(interface, lhs, {"V": [1, 2]}),
        Transformation(interface, rhs, {"V": [1, 1]}),
        kind=SPO,
    )
    # vertex 3 of L is deleted and the match collapses it onto vertex 2's image
    match = Transformation(lhs, g, {"V": [1, 2, 2]})
    out = rewrite_spo(rule, match)
    assert out.result.card == {"V": 0, "E": 0}


def test_spo_agrees_with_dpo_when_applicable(two_triangles):
    rule = flip_rule()
    spo_rule = Rule(rule.l, rule.r, kind=SPO)
    for match in homomorphisms(rule.lhs, two_triangles, SearchOptions(monic=True)):
        assert check_pushout_complement(rule.l, match) == []
        a = rewrite_dpo(rule, match)
        b = rewrite_spo(spo_rule, match)
        assert is_isomorphic(a.result, b.result) is not None


# ---------------------------------------------------------------------------
# The one deletion closure, against the preimage-index worklist and the
# nested SPO fixpoint it replaced


def reference_closure(x, core):
    """Every part with a path of columns into `core`, by a preimage-index worklist."""
    closed = {obj: set(core.get(obj, ())) for obj in x.schema.objects}
    work = [(obj, part) for obj, parts in closed.items() for part in parts]
    while work:
        obj, part = work.pop()
        for gen in x.schema.generators:
            if gen.cod == obj:
                for pre in x.index[gen.name][part - 1]:
                    if pre not in closed[gen.dom]:
                        closed[gen.dom].add(pre)
                        work.append((gen.dom, pre))
    return closed


def reference_spo(rule, match):
    """SPO with its dead parts found by two nested fixpoints.

    The outer one closes the core plus the host images of dead interface
    parts; the inner one spreads deadness through r's identifications.
    Returns the outcome and whether r spread deadness beyond the closure
    of the core.
    """
    g, interface = match.cod, rule.interface
    objects = g.schema.objects
    core = {
        obj: {match.comp[obj][p - 1] for p in rule.lhs.parts(obj) if p not in rule.l.image(obj)}
        for obj in objects
    }

    def host_image(obj, i):
        return match.comp[obj][rule.l.comp[obj][i - 1] - 1]

    dead_i = {obj: set() for obj in objects}
    while True:
        seeds = {obj: core[obj] | {host_image(obj, i) for i in dead_i[obj]} for obj in objects}
        dead_g = reference_closure(g, seeds)
        new_dead = {
            obj: {i for i in interface.parts(obj) if host_image(obj, i) in dead_g[obj]}
            for obj in objects
        }
        while True:
            grew = False
            for obj in objects:
                dead_values = {rule.r.comp[obj][i - 1] for i in new_dead[obj]}
                for i in interface.parts(obj):
                    if i not in new_dead[obj] and rule.r.comp[obj][i - 1] in dead_values:
                        new_dead[obj].add(i)
                        grew = True
            if not grew:
                break
        if new_dead == dead_i:
            break
        dead_i = new_dead
    k, k_to_g, moved = _restrict_removing(g, dead_g)
    dead_r = reference_closure(
        rule.rhs, {obj: {rule.r.comp[obj][i - 1] for i in dead_i[obj]} for obj in objects}
    )
    _, r_kept, _ = _restrict_removing(rule.rhs, dead_r)
    _, j_to_i, _ = _restrict_removing(interface, dead_i)
    j_to_r = factor_through(j_to_i.compose(rule.r), r_kept)
    j_to_k = _into_restriction(j_to_i.compose(rule.l).compose(match), k_to_g, moved)
    po = pushout(j_to_r, j_to_k)
    maps = {
        "match": match,
        "interface_to_i": j_to_i,
        "interface_to_k": j_to_k,
        "k_to_g": k_to_g,
        "r_kept": r_kept,
        "r_to_result": po.leg_b,
        "k_to_result": po.leg_c,
    }
    return RewriteOutcome(po.apex, k, maps), dead_g != reference_closure(g, core)


def test_deletion_closure_agrees_with_index_worklist():
    rng = random.Random(59)
    for case in range(400):
        schema = random_cyclic_schema(rng) if case % 2 else random_acyclic_schema(rng)
        x = random_instance(rng, schema, max_parts=5)
        core = {o: {p for p in x.parts(o) if rng.random() < 0.2} for o in schema.objects}
        assert deletion_closure(x, core) == reference_closure(x, core)


def test_deletion_closure_follows_a_long_loop():
    n = 100_000
    x = make_instance(
        loop_graph_schema(),
        {"V": 1, "E": n},
        {"src": [1] * n, "tgt": [1] * n, "next": list(range(2, n + 1)) + [n]},
    )
    closed = deletion_closure(x, {"E": {n}})
    assert closed == {"V": set(), "E": set(range(1, n + 1))}


def test_deletion_closure_indexes_only_generators_into_reached_objects():
    x = make_instance(
        loop_graph_schema(),
        {"V": 2, "E": 3},
        {"src": [1, 1, 2], "tgt": [2, 2, 1], "next": [2, 3, 3]},
    )
    assert deletion_closure(x, {"E": {2}}) == {"V": set(), "E": {1, 2}}
    assert set(x.index) == {"next"}
    assert deletion_closure(x, {"V": {1}}) == {"V": {1}, "E": {1, 2, 3}}
    assert set(x.index) == {"next", "src", "tgt"}


@pytest.mark.parametrize("part", [0, -1, 4, 7])
def test_deletion_closure_refuses_parts_out_of_range(graph, part):
    path = make_instance(graph, {"V": 3, "E": 2}, {"src": [1, 2], "tgt": [2, 3]})
    with pytest.raises(PartOutOfRangeError, match=rf"part {part} outside 1\.\.3 for 'V'"):
        deletion_closure(path, {"V": {part}})


def _random_spo_case(rng, schema):
    """An SPO rule and a match that need not be monic, or None if L has none.

    r often maps into the terminal instance, which identifies all of I's
    parts of each object, so that deadness has something to spread over.
    """
    g = random_instance(rng, schema, max_parts=3)
    lhs = random_instance(rng, schema, max_parts=3)
    matches = homomorphisms(lhs, g)
    if not matches:
        return None
    parts = random_closed_parts(rng, lhs, keep_probability=0.7)
    interface = subinstance(lhs, parts)
    l = Transformation(interface, lhs, {o: sorted(parts[o]) for o in schema.objects})
    if rng.random() < 0.4:
        rhs = make_instance(schema, dict.fromkeys(schema.objects, 1), {x.name: [1] for x in schema.generators})
    else:
        rhs = random_instance(rng, schema, max_parts=2)
    rs = homomorphisms(interface, rhs)
    r = rng.choice(rs) if rs and rng.random() < 0.8 else identity(interface)
    return Rule(l, r, kind=SPO), rng.choice(matches)


@pytest.mark.parametrize("cyclic", [False, True])
def test_spo_agrees_with_nested_fixpoint_reference(cyclic):
    rng = random.Random(61 + cyclic)
    seen = {"non-monic match": 0, "non-monic r": 0, "r spreads deadness": 0}
    done = 0
    while done < 400:
        schema = random_cyclic_schema(rng) if cyclic else random_acyclic_schema(rng)
        case = _random_spo_case(rng, schema)
        if case is None:
            continue
        rule, match = case
        out, (ref, spread) = rewrite_spo(rule, match), reference_spo(rule, match)
        assert (out.result, out.k, out.maps) == (ref.result, ref.k, ref.maps)
        seen["non-monic match"] += not match.is_monic()
        seen["non-monic r"] += not rule.r.is_monic()
        seen["r spreads deadness"] += spread
        done += 1
    assert min(seen.values()) > 0, seen


@pytest.fixture()
def index_builds(monkeypatch):
    """The instances a preimage index is built for, in order."""
    built = []
    build = instance_module.build_index

    def counting(x):
        built.append(x)
        return build(x)

    monkeypatch.setattr(instance_module, "build_index", counting)
    return built


@pytest.fixture()
def list_builds(monkeypatch):
    """(index, generator name) for each generator's lists built from its column, in order."""
    built = []
    missing = instance_module._PreimageIndex.__missing__

    def counting(index, name):
        if name not in index.handed:
            built.append((index, name))
        return missing(index, name)

    monkeypatch.setattr(instance_module._PreimageIndex, "__missing__", counting)
    return built


def _carried(comp: dict[str, list[int]], out: RewriteOutcome) -> dict[str, list[int]]:
    """A map's components into a step's host, carried to its result; each part must survive."""
    back = {o: {h: k for k, h in enumerate(out.maps["k_to_g"].comp[o], start=1)} for o in comp}
    return {o: [out.maps["k_to_result"].comp[o][back[o][h] - 1] for h in hs] for o, hs in comp.items()}


@pytest.mark.parametrize("kind", [DPO, SPO, SQPO])
def test_rewrite_chain_builds_lists_only_on_the_first_host(kind, index_builds, list_builds):
    mesh = gen_mesh(3, 3)
    flip = flip_rule()
    rule = Rule(flip.l, flip.r, kind=kind)
    cells, used = [], set()  # matches on three cells with no triangle in common
    for match in homomorphisms(rule.lhs, mesh, SearchOptions(monic=True)):
        if used.isdisjoint(match.comp["T"]) and len(cells) < 3:
            cells.append(match.comp)
            used.update(match.comp["T"])
    host = first = make_instance(mesh.schema, mesh.card, mesh.column)  # no index cached yet
    index_builds.clear()
    list_builds.clear()
    rule_parts = (rule.lhs, rule.interface, rule.rhs)
    for step in range(len(cells)):
        out = rewrite(rule, Transformation(rule.lhs, host, cells[step]))
        cells = cells[: step + 1] + [_carried(comp, out) for comp in cells[step + 1 :]]
        host = out.result
    assert len(cells) == 3
    assert [x for x in index_builds if not any(x is y for y in rule_parts)] == [first]
    read = ["d0", "d1", "d2"] if kind != SQPO else ["src", "tgt", "d0", "d1", "d2"]
    assert all(index is first.index for index, _ in list_builds)
    assert sorted(name for _, name in list_builds) == sorted(read)


def _lists_from_column(x: CSetInstance, name: str) -> list[list[int]]:
    """The preimage lists of one column, read from the column alone."""
    lists: list[list[int]] = [[] for _ in range(x.card[x.schema.generator(name).cod])]
    for part, value in enumerate(x.column[name], start=1):
        lists[value - 1].append(part)
    return lists


def _random_chain_rule(rng, schema, kind: str) -> Rule:
    """A rule for a chain: l monic, or for SqPO often not; r an injection that creates parts, any map, or 1."""
    lhs = random_instance(rng, schema, max_parts=2)
    interface = random_instance(rng, schema, max_parts=3) if kind == SQPO and rng.random() < 0.6 else None
    ls = homomorphisms(interface, lhs) if interface else []
    if ls:
        l = rng.choice(ls)
    else:
        parts = random_closed_parts(rng, lhs, keep_probability=0.6)
        interface = subinstance(lhs, parts)
        l = Transformation(interface, lhs, {o: sorted(parts[o]) for o in schema.objects})
    pick = rng.random()
    if pick < 0.5:
        r = coproduct([interface, random_instance(rng, schema, max_parts=2)])[1][0]
    else:
        rs = homomorphisms(interface, random_instance(rng, schema, max_parts=2)) if pick < 0.75 else []
        r = rng.choice(rs) if rs else identity(interface)
    return Rule(l, r, kind=kind)


@pytest.mark.parametrize(
    "kind, cyclic", [(DPO, False), (SPO, False), (SQPO, False), (DPO, True), (SPO, True)]
)
def test_handed_on_preimage_lists_agree_with_their_columns(kind, cyclic, monkeypatch):
    """Every list a step hands on, read as steps read it and made whole, and every host's, equals one read off its column."""
    rng = random.Random(f"handed-on:{kind}:{cyclic}")
    rebased, steps = [], []
    whole = instance_module._Patched.whole
    monkeypatch.setattr(instance_module._Patched, "whole", lambda lists: rebased.append(bool(steps)) or whole(lists))
    handed = patched = moved = 0
    for _ in range(150):
        schema = random_cyclic_schema(rng) if cyclic else random_acyclic_schema(rng)
        rule, host = _random_chain_rule(rng, schema, kind), random_instance(rng, schema, max_parts=6 if kind == SQPO else 4)
        for gen in schema.generators:
            if rng.random() < 0.7:
                host.index[gen.name]
        seen = [host]
        for _ in range(6):
            # searched on a copy, so that the host's handed lists are not made whole before the step
            matches = homomorphisms(rule.lhs, CSetInstance(schema, host.card, host.column), SearchOptions(monic=kind == SQPO))
            rng.shuffle(matches)
            for match in matches:
                try:
                    steps.append(1)  # a rebase while the step runs counts
                    out = rewrite(rule, Transformation(rule.lhs, host, match.comp))
                    break
                except ComplementViolationsError:
                    continue
                finally:
                    steps.pop()
            else:
                break
            moved += any(out.maps["k_to_g"].comp[o] != list(range(1, out.k.card[o] + 1)) for o in schema.objects)
            for x in (out.k, out.result):
                handed += len(x.index.handed)
                patched += sum(map(len, x.index.handed.values()))
            seen += [out.k, out.result] + [x for t in out.maps.values() for x in (t.dom, t.cod)]
            for x in seen:
                for name, lists in {**x.index.handed, **x.index}.items():
                    fresh = _lists_from_column(x, name)
                    assert [lists[t] for t in range(len(fresh))] == fresh, (x, name)
            host = out.result
        for x in seen:
            for name in {**x.index.handed, **x.index}:
                assert x.index[name] == _lists_from_column(x, name), (x, name)
    rebased = sum(rebased)
    assert handed > 300 and patched > 300 and moved >= 5 and rebased > 30, (handed, patched, moved, rebased)


def test_sqpo_requires_monic_match(graph):
    single = make_instance(graph, {"V": 1}, {})
    double = make_instance(graph, {"V": 2}, {})
    rule = Rule(identity(double), identity(double), kind=SQPO)
    collapse = Transformation(double, single, {"V": [1, 1]})
    with pytest.raises(NotMonicError):
        rewrite_sqpo(rule, collapse)


def test_sqpo_copies_context_of_duplicated_vertex(d2, triangle):
    # copy a corner of the triangle; its incident edges and the face follow
    lhs = make_instance(d2, {"V": 1}, {})
    interface = make_instance(d2, {"V": 2}, {})
    collapse = Transformation(interface, lhs, {"V": [1, 1]})
    rule = Rule(collapse, identity(interface), kind=SQPO)
    out = rewrite_sqpo(rule, Transformation(lhs, triangle, {"V": [1]}))
    assert out.result.card == {"V": 4, "E": 5, "T": 2}
    assert validate_instance(out.result) == []


@pytest.fixture()
def classifier_builds(monkeypatch):
    """The instances a Classifier is constructed for, in order."""
    built = []
    init = Classifier.__init__

    def counting(self, x):
        built.append(x)
        init(self, x)

    monkeypatch.setattr(Classifier, "__init__", counting)
    return built


def test_sqpo_builds_each_classifier_once_per_rule(d2, triangle, classifier_builds, monkeypatch):
    maps_built = []
    build_map = colimits.classifier_map
    monkeypatch.setattr(colimits, "classifier_map", lambda *a: maps_built.append(a[2]) or build_map(*a))
    lhs = make_instance(d2, {"V": 1}, {})
    interface = make_instance(d2, {"V": 2}, {})
    rule = Rule(Transformation(interface, lhs, {"V": [1, 1]}), identity(interface), kind=SQPO)
    fibres_built = []
    build_fibres = Transformation.classifier_fibres.func
    counted = cached_property(lambda t: fibres_built.append(t) or build_fibres(t))
    counted.__set_name__(Transformation, "classifier_fibres")
    monkeypatch.setattr(Transformation, "classifier_fibres", counted)
    for v in (1, 2):
        rewrite_sqpo(rule, Transformation(lhs, triangle, {"V": [v]}))
    assert len(classifier_builds) == 2
    assert classifier_builds[0] is lhs and classifier_builds[1] is interface
    assert len(maps_built) == 1 and maps_built[0] is rule.l
    assert len(fibres_built) == 1 and fibres_built[0] is rule.l


@pytest.fixture()
def naturality_checks(monkeypatch):
    """The maps `is_natural` is run on, in order, whichever module calls it."""
    checked = []

    def counting(t):
        checked.append(t)
        return is_natural(t)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "csetrw" and getattr(module, "is_natural", None) is is_natural:
            monkeypatch.setattr(module, "is_natural", counting)
    return checked


def _clone_rule(d2):
    lhs, interface = make_instance(d2, {"V": 1}, {}), make_instance(d2, {"V": 2}, {})
    return Rule(Transformation(interface, lhs, {"V": [1, 1]}), identity(interface), kind=SQPO)


@pytest.mark.parametrize("kind, rule_name", [(DPO, "flip"), (SQPO, "flip"), (SQPO, "clone")])
def test_a_rewrite_step_checks_naturality_once_on_the_match(kind, rule_name, d2, naturality_checks):
    mesh = gen_mesh(3, 3)
    rule = Rule(flip_rule().l, flip_rule().r, kind=kind) if rule_name == "flip" else _clone_rule(d2)
    matches = homomorphisms(rule.lhs, mesh, SearchOptions(monic=True))
    assert len(matches) >= 9
    for match in matches:
        naturality_checks.clear()
        out = rewrite(rule, match)
        assert len(naturality_checks) == 1 and naturality_checks[0] is match
        assert validate_instance(out.result) == []
    # the public constructions still check what they are given
    naturality_checks.clear()
    if kind == SQPO:
        final_pullback_complement(rule.l, matches[0])
    else:
        pushout(rule.r, rule.r)
    assert len(naturality_checks) == 2


def test_parsing_and_constructing_build_no_classifier(d2, classifier_builds):
    fixtures = Path(__file__).parent / "fixtures"
    ws = Workspace()
    ws.load(fixtures / "d2.json")
    parse_rule(json.loads((fixtures / "flip_rule.json").read_text()), ws.resolve)
    make_instance(d2, {"V": 3, "E": 1}, {"src": [1], "tgt": [2]})
    gen_mesh(2, 2)
    assert classifier_builds == []


def test_sqpo_on_cyclic_schema_fails_on_every_call(classifier_builds):
    loop = SchemaPresentation(["X"], [Generator("f", "X", "X")])
    x = make_instance(loop, {"X": 1}, {"f": [1]})
    rule = Rule(identity(x), identity(x), kind=SQPO)
    for _ in range(2):
        with pytest.raises(CyclicSchemaError):
            rewrite_sqpo(rule, identity(x))
    assert len(classifier_builds) == 2


def test_sqpo_clones_the_sink_of_a_long_schema_chain():
    # o0 -> o1 -> ... -> o1099 with one part each: every part lies above
    # the cloned sink part, so classifying o0's part walks 1,100 objects
    objects = [f"o{i}" for i in range(1100)]
    schema = SchemaPresentation(objects, [Generator(f"g{i}", a, b) for i, (a, b) in enumerate(zip(objects, objects[1:]))])
    g = make_instance(schema, {o: 1 for o in objects}, {f"g{i}": [1] for i in range(1099)})
    lhs = make_instance(schema, {"o1099": 1}, {})
    interface = make_instance(schema, {"o1099": 2}, {})
    rule = Rule(Transformation(interface, lhs, {"o1099": [1, 1]}), identity(interface), kind=SQPO)
    out = rewrite_sqpo(rule, Transformation(lhs, g, {"o1099": [1]}))
    assert out.result.card == {o: 2 for o in objects}
    assert out.maps["k_to_g"].comp["o0"] == [1, 1]


def _step_record(out):
    """Everything a step built, with ids and order as they are."""
    built = [[x.card, x.column] for x in (out.k, out.result)]
    return json.dumps(built + [[name, t.comp] for name, t in out.maps.items()])


def test_sqpo_equals_dpo_for_monic_l_randomized():
    # with a monic l and no violations SqPO's K is DPO's, part for part
    rng = random.Random(59)
    seen = {"identity r": 0, "injection r": 0, "parts moved": 0}
    while min(seen.values()) < 15:
        schema = random_acyclic_schema(rng)
        host = random_instance(rng, schema, max_parts=4)
        lhs = random_instance(rng, schema, max_parts=2)
        i_parts = random_closed_parts(rng, lhs, keep_probability=0.5)
        interface = subinstance(lhs, i_parts)
        l = Transformation(interface, lhs, {o: sorted(i_parts[o]) for o in schema.objects})
        if rng.random() < 0.5:
            r, kind = identity(interface), "identity r"
        else:
            _, (r, _) = coproduct([interface, random_instance(rng, schema, max_parts=2)])
            kind = "injection r"
        matches = [m for m in brute_homs(lhs, host, monic=True) if not check_pushout_complement(l, m)]
        if not matches:
            continue
        m = rng.choice(matches)
        dpo = rewrite_dpo(Rule(l, r, kind=DPO), m)
        assert _step_record(rewrite_sqpo(Rule(l, r, kind=SQPO), m)) == _step_record(dpo)
        seen[kind] += 1
        k_to_g = dpo.maps["k_to_g"].comp.values()
        seen["parts moved"] += any(col != sorted(col) for col in k_to_g)


def _pushout_record(po):
    return json.dumps([po.apex.card, po.apex.column, po.leg_b.comp, po.leg_c.comp])


def test_compiled_rhs_equals_the_pushout_randomized():
    # r the identity, a coproduct injection I -> I + X (created parts point
    # at created parts) or the inclusion of a closed part of R, numbered
    # swap-last (created parts point at I and at created parts); I -> K any
    # homomorphism, so it may merge parts
    rng = random.Random(67)
    seen = dict.fromkeys(["identity", "injection", "inclusion", "cyclic", "at I", "at created"], 0)
    while min(seen.values()) < 15:
        cyclic = rng.random() < 0.5
        schema = random_cyclic_schema(rng) if cyclic else random_acyclic_schema(rng)
        kind = rng.choice(["identity", "injection", "inclusion"])
        if kind == "inclusion":
            rhs = random_instance(rng, schema, max_parts=3)
            interface, r = restrict(rhs, random_closed_parts(rng, rhs, keep_probability=0.5))
        else:
            interface = random_instance(rng, schema, max_parts=2)
            r = identity(interface)
            if kind == "injection":
                _, (r, _) = coproduct([interface, random_instance(rng, schema, max_parts=2)])
        homs = brute_homs(interface, random_instance(rng, schema, max_parts=3))
        if not homs:
            continue
        assert r.append_program is not None and r.append_program is r.append_program
        i_to_k = rng.choice(homs)
        # the general path: the quotient of K + R by r(i) ~ i_to_k(i)
        apex, (comp_k, comp_r) = _quotient([i_to_k.cod, r.cod], [(1, 0, r.comp, i_to_k.comp)])
        assert _pushout_record(_pushout(r, i_to_k)) == json.dumps([apex.card, apex.column, comp_r, comp_k])
        seen[kind] += 1
        seen["cyclic"] += cyclic
        image = {o: set(r.comp[o]) for o in schema.objects}
        for gen in schema.generators:
            created = set(r.cod.parts(gen.dom)) - image[gen.dom]
            targets = {r.cod.column[gen.name][p - 1] in image[gen.cod] for p in created}
            seen["at I"] += True in targets
            seen["at created"] += False in targets


def test_rule_compiles_no_program_for_a_non_monic_r(graph):
    single = make_instance(graph, {"V": 1}, {})
    double = make_instance(graph, {"V": 2}, {})
    rule = Rule(identity(double), Transformation(double, single, {"V": [1, 1]}))
    assert rule.r.append_program is None
    out = rewrite(rule, identity(double))
    assert out.result.card == {"V": 1, "E": 0}


def test_find_and_rewrite_counts(two_triangles):
    rule = flip_rule()
    outcomes = find_and_rewrite(rule, two_triangles, SearchOptions(monic=True))
    assert len(outcomes) == 2
    for out in outcomes:
        assert is_isomorphic(out.result, quad_pattern_flipped()) is not None


def test_find_and_rewrite_unmatched_is_empty(graph, d2):
    mesh = gen_mesh(1, 1)
    unmatched = make_instance(d2, {"V": 1, "E": 1}, {"src": [1], "tgt": [1]})
    rule = Rule(identity(unmatched), identity(unmatched), kind=DPO)
    assert find_and_rewrite(rule, mesh) == []


def test_find_and_rewrite_identity_rule(small_graph):
    rule = Rule(identity(small_graph), identity(small_graph), kind=DPO)
    outcomes = find_and_rewrite(rule, small_graph)
    assert len(outcomes) == len(homomorphisms(small_graph, small_graph))
    # the identity rule deletes nothing, so every outcome keeps the instance
    for out in outcomes:
        assert is_isomorphic(out.result, small_graph) is not None


def test_find_and_rewrite_skips_inapplicable_dpo(graph, small_graph):
    rule = vertex_delete_rule(graph, DPO)
    outcomes = find_and_rewrite(rule, small_graph)
    # only vertex 3 has no outgoing edge... but it has incoming ones; nothing applies
    assert outcomes == []


def test_mesh_flip_count_matches_quad_matches():
    mesh = gen_mesh(2, 2)
    rule = flip_rule()
    monic = homomorphisms(rule.lhs, mesh, SearchOptions(monic=True))
    outcomes = find_and_rewrite(rule, mesh, SearchOptions(monic=True))
    assert len(outcomes) == len(monic) == 8
    for out in outcomes:
        assert validate_instance(out.result) == []


def _random_rule_and_match(rng, monic_r=False):
    """A DPO-applicable (rule, match, host) triple on a random schema."""
    schema = random_acyclic_schema(rng)
    g = random_instance(rng, schema, max_parts=3)
    l_parts = random_closed_parts(rng, g, keep_probability=0.4)
    lhs = subinstance(g, l_parts)
    match = Transformation(lhs, g, {o: sorted(l_parts[o]) for o in schema.objects})
    i_parts = random_closed_parts(rng, lhs, keep_probability=0.6)
    interface = subinstance(lhs, i_parts)
    l = Transformation(interface, lhs, {o: sorted(i_parts[o]) for o in schema.objects})
    r_target = random_instance(rng, schema, max_parts=2)
    rs = brute_homs(interface, r_target)
    if rs and rng.random() < 0.5:
        r = rng.choice(rs)
    else:
        r = identity(interface)
    return Rule(l, r, kind=DPO), match, g


def test_engine_agreement_randomized():
    rng = random.Random(41)
    done = 0
    while done < 12:
        rule, match, g = _random_rule_and_match(rng)
        if check_pushout_complement(rule.l, match):
            continue
        dpo = rewrite_dpo(rule, match)
        spo = rewrite_spo(Rule(rule.l, rule.r, kind=SPO), match)
        sqpo = rewrite_sqpo(Rule(rule.l, rule.r, kind=SQPO), match)
        assert is_isomorphic(dpo.result, spo.result) is not None
        assert is_isomorphic(dpo.result, sqpo.result) is not None
        assert validate_instance(dpo.result) == []
        done += 1


def test_dangling_equivalence_randomized():
    # Eq-3 violations are empty iff the typed graph of C-(B-A) still has
    # exactly one outgoing edge per generator at every vertex
    rng = random.Random(43)
    done = 0
    while done < 40:
        schema = random_acyclic_schema(rng)
        c = random_instance(rng, schema, max_parts=3)
        b_parts = random_closed_parts(rng, c, keep_probability=0.6)
        b = subinstance(c, b_parts)
        g = Transformation(b, c, {o: sorted(b_parts[o]) for o in schema.objects})
        a_parts = random_closed_parts(rng, b, keep_probability=0.5)
        a = subinstance(b, a_parts)
        f = Transformation(a, b, {o: sorted(a_parts[o]) for o in schema.objects})
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
        result = check_discrete_opfibration(typed_graph_minus(elements(c), removed))
        structural = [
            v for v in (result if isinstance(result, list) else [])
            if isinstance(v, (MissingEdge, MultipleEdges))
        ]
        assert (not dangling) == (not structural)
        done += 1
