"""Run one seeded corpus on two versions of csetrw and compare the outputs.

    python tools/differential.py --against REV [--iso]

REV (a commit, branch or tag) is exported with `git archive` into a
temporary directory; no network is used. Each side runs in its own
interpreter with its own `src/` first on the import path, and both draw
their inputs from this checkout's `tests/oracles.py` with the same seeds:
homomorphisms (plain, monic, limited, and pinned: half of these cases
are drawn over a cyclic schema and carry 2 or 3 pins, which may force
or contradict each other; and, limited, of patterns with at least 12
branching steps into themselves plus a padding), `is_isomorphic`, pushouts, pullbacks,
`restrict`, pushout complements and their refusals, `rewrite`
and `find_and_rewrite` under DPO, SPO and SqPO, chains of rewrite steps
that feed each result back as the next host, the partial map
classifier (half of its cases over closed pieces of a mesh, whose schema
has equations), recorded through its unit and through
`classify_partial` of a random partial map, `diagram_colimit` with
`coproduct` (small diagrams, and diagrams of up to 12 nodes with spans,
parallel arrows and self-arrows),
chains of structured cospans composed one after another,
`open_rewrite` (in half of these cases r is I's injection into I plus a
random instance, with R's legs composed through it, so that the
right-hand pushout and the result legs get new parts), and path
equality: `hom_paths` for every pair of objects and `paths_equal` on
random pairs of paths with a shared source, over random acyclic
schemas with 0-4 equations between parallel paths, and the typed-graph
view: `elements` of a random instance or a closed mesh piece, the
readback `check_discrete_opfibration` of its element graph before and
after random edges are dropped, duplicated or retargeted and of a
random typed graph over the schema's graph, and a slice taken through
`slice_to_cset` and back through `cset_to_slice`. The SqPO and
chain hosts carry a disjoint random padding, so that they have parts
outside the match's neighbourhood. Half of the DPO and SPO rewrite
cases are drawn over a schema with a loop `next: E -> E`, so that the
deletion closure follows a generator on a cycle.

Every case gives one canonical JSON record: the input instances, the
instances the library built, the maps between them and any other data
(match lists, refusals, and the violations `validate_instance` finds in
any built instance, since the library does not check what it builds).
By default the records of the two sides must be byte-identical. With
--iso a record that differs still passes when the inputs and data agree
and the built instances of one side are isomorphic to the other's by
isomorphisms that carry every recorded map onto its counterpart; the
instances that maps join are matched as one group, each group on its
own. A rewrite chain picks each step's match by labels carried through
the previous steps' maps, not by part numbers, so that two versions that
number parts differently still rewrite at corresponding matches. The
report gives counts per family and the first differing case of each,
and the exit status is 1 if any case differs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = 100  # seeded cases per family
CHAIN_STEPS = 5  # rewrite steps per semantics in a "rewrite chain" case


# ---------------------------------------------------------------------------
# The corpus (runs inside each side's interpreter)


class Record:
    """Instances and maps of one case, named by the order they turn up in."""

    def __init__(self, schema):
        self.schema = {
            "objects": list(schema.objects),
            "generators": [[g.name, g.dom, g.cod] for g in schema.generators],
        }
        self.fixed: dict = {}
        self.built: dict = {}
        self.maps: dict = {}
        self.data: dict = {}
        self._names: dict[int, tuple[str, object]] = {}  # holds x so id(x) stays unique

    def fix(self, name, x):
        self._names[id(x)] = name, x
        self.fixed[name] = _inst(x)

    def _name(self, x, fallback: str) -> str:
        if id(x) not in self._names:
            from csetrw import validate_instance

            self._names[id(x)] = fallback, x
            self.built[fallback] = _inst(x)
            violations = validate_instance(x)
            if violations:
                self.data.setdefault("invalid", {})[fallback] = [str(v) for v in violations]
        return self._names[id(x)][0]

    def map(self, name, t):
        dom = self._name(t.dom, f"{name}.dom")
        cod = self._name(t.cod, f"{name}.cod")
        self.maps[name] = [dom, cod, t.comp]

    def error(self, exc):
        self.data["error"] = type(exc).__name__
        if hasattr(exc, "violations"):
            self.data["violations"] = [str(v) for v in exc.violations]

    def outcome(self, prefix, out):
        self._name(out.k, f"{prefix}k")
        self._name(out.result, f"{prefix}result")
        for name, t in out.maps.items():
            self.map(prefix + name, t)

    def obj(self):
        return {
            "schema": self.schema,
            "fixed": self.fixed,
            "built": self.built,
            "maps": self.maps,
            "data": self.data,
        }


def _inst(x):
    return {"card": dict(x.card), "columns": {g: list(c) for g, c in x.column.items()}}


def _comp(t):
    return {obj: list(col) for obj, col in t.comp.items()}


def _small(rng, schema, limit, **kw):
    from oracles import random_instance

    while True:
        x = random_instance(rng, schema, **kw)
        if sum(x.card.values()) <= limit:
            return x


def _sub(rng, x, keep):
    """A closed subinstance of x (ascending numbering) and its inclusion."""
    from oracles import random_closed_parts, subinstance

    from csetrw import Transformation

    parts = random_closed_parts(rng, x, keep_probability=keep)
    sub = subinstance(x, parts)
    return sub, Transformation(sub, x, {o: sorted(parts[o]) for o in x.schema.objects})


def _some_hom(rng, x, y):
    from csetrw import homomorphisms

    found = homomorphisms(x, y)
    return rng.choice(found) if found else None


def case_homs(rng):
    from oracles import brute_homs, random_acyclic_schema, random_cyclic_schema, random_pins

    from csetrw import SearchOptions, homomorphisms, is_isomorphic

    cyclic = rng.random() < 0.5
    schema = random_cyclic_schema(rng) if cyclic else random_acyclic_schema(rng)
    x = _small(rng, schema, 5, max_parts=2)
    y = _small(rng, schema, 8, max_parts=3, min_parts=1)
    rec = Record(schema)
    rec.fix("x", x)
    rec.fix("y", y)
    for monic in (False, True):
        opts = SearchOptions(monic=monic)
        rec.data[f"monic={monic}"] = [_comp(t) for t in homomorphisms(x, y, opts)]
        rec.data[f"monic={monic},limit=2"] = [
            _comp(t) for t in homomorphisms(x, y, SearchOptions(monic=monic, limit=2))
        ]
    pins = random_pins(rng, x, y, brute_homs(x, y), rng.randint(2, 3) if cyclic else 1)
    if pins:
        rec.data["pins"] = {obj: list(ps.items()) for obj, ps in pins.items()}
        for monic in (False, True):
            opts = SearchOptions(monic=monic, initial=pins)
            rec.data[f"pinned,monic={monic}"] = [_comp(t) for t in homomorphisms(x, y, opts)]
    iso = is_isomorphic(x, x)
    rec.data["self_iso"] = _comp(iso) if iso else None
    return rec


def case_homs_deep(rng):
    """Patterns with at least 12 branching steps, into themselves plus a random padding.

    Their search plans run past one chunk of generated loops. Every
    search carries a limit, since the full enumerations are exponential;
    each is made plain, monic, and pinned at 1-3 parts that follow the
    inclusion or contradict it.
    """
    from oracles import random_acyclic_schema, random_cyclic_schema, random_instance, random_pins

    from csetrw import SearchOptions, coproduct, homomorphisms
    from csetrw.search import _branch_order

    cyclic = rng.random() < 0.5
    while True:
        schema = random_cyclic_schema(rng) if cyclic else random_acyclic_schema(rng)
        x = _small(rng, schema, 30, max_parts=8, min_parts=2)
        if sum(1 for _ in _branch_order(x)) >= 12:
            break
    y, (incl, _) = coproduct([x, random_instance(rng, schema, max_parts=3)])
    rec = Record(schema)
    rec.fix("x", x)
    rec.fix("y", y)
    pins = random_pins(rng, x, y, [incl], rng.randint(1, 3))
    rec.data["pins"] = {obj: list(ps.items()) for obj, ps in pins.items()}
    for monic in (False, True):
        for limit in (1, 6, 40):
            opts = SearchOptions(monic=monic, limit=limit)
            rec.data[f"monic={monic},limit={limit}"] = [_comp(t) for t in homomorphisms(x, y, opts)]
        opts = SearchOptions(monic=monic, initial=pins, limit=40)
        rec.data[f"pinned,monic={monic}"] = [_comp(t) for t in homomorphisms(x, y, opts)]
    return rec


def case_limits(rng):
    from oracles import random_acyclic_schema

    from csetrw import pullback, pushout

    schema = random_acyclic_schema(rng)
    a = _small(rng, schema, 4, max_parts=2)
    b = _small(rng, schema, 5, max_parts=2, min_parts=1)
    c = _small(rng, schema, 5, max_parts=2, min_parts=1)
    d = _small(rng, schema, 4, max_parts=2, min_parts=1)
    rec = Record(schema)
    for name, x in (("a", a), ("b", b), ("c", c), ("d", d)):
        rec.fix(name, x)
    f, g = _some_hom(rng, a, b), _some_hom(rng, a, c)
    if f and g:
        rec.map("f", f)
        rec.map("g", g)
        po = pushout(f, g)
        rec.map("po.leg_b", po.leg_b)
        rec.map("po.leg_c", po.leg_c)
    u, v = _some_hom(rng, b, d), _some_hom(rng, c, d)
    if u and v:
        rec.map("u", u)
        rec.map("v", v)
        pb = pullback(u, v)
        rec.map("pb.p1", pb.p1)
        rec.map("pb.p2", pb.p2)
    return rec


def case_complement(rng):
    from oracles import random_acyclic_schema, random_instance

    from csetrw import check_pushout_complement, pushout_complement

    schema = random_acyclic_schema(rng)
    c = random_instance(rng, schema, max_parts=3)
    b, g = _sub(rng, c, 0.6)
    a, f = _sub(rng, b, 0.5)
    rec = Record(schema)
    for name, x in (("a", a), ("b", b), ("c", c)):
        rec.fix(name, x)
    rec.map("f", f)
    rec.map("g", g)
    rec.data["check"] = [str(v) for v in check_pushout_complement(f, g)]
    try:
        a_to_d, d_to_c = pushout_complement(f, g)
        rec.map("a_to_d", a_to_d)
        rec.map("d_to_c", d_to_c)
    except Exception as exc:  # refusals are part of the output
        rec.error(exc)
    return rec


def case_restrict(rng):
    from oracles import random_acyclic_schema, random_closed_parts, random_instance

    from csetrw import restrict

    x = random_instance(rng, random_acyclic_schema(rng), max_parts=4)
    rec = Record(x.schema)
    rec.fix("x", x)
    _, incl = restrict(x, random_closed_parts(rng, x, keep_probability=0.6))
    rec.map("restrict", incl)
    return rec


def _random_rule(rng, kind, pad=False, loop=False):
    """A random rule, a match and its host.

    With `pad` the host is G plus a disjoint random instance, in random
    order, so that it has parts no path joins to the match. With `loop`
    the schema is the graph schema with a loop `next: E -> E`.
    """
    from oracles import loop_graph_schema, random_acyclic_schema, random_instance

    from csetrw import Rule, coproduct, identity

    schema = loop_graph_schema() if loop else random_acyclic_schema(rng)
    g = random_instance(rng, schema, max_parts=3)
    lhs, match = _sub(rng, g, 0.4)
    if pad:
        summands = [g, random_instance(rng, schema, max_parts=3)]
        first = rng.random() < 0.5
        g, injections = coproduct(summands if first else summands[::-1])
        match = match.compose(injections[0 if first else 1])
    if kind == "sqpo" and rng.random() < 0.6:
        interface = _small(rng, schema, 4, max_parts=2)
        l = _some_hom(rng, interface, lhs)
        if l is None:
            interface, l = _sub(rng, lhs, 0.6)
    else:
        interface, l = _sub(rng, lhs, 0.6)
    r_target = random_instance(rng, schema, max_parts=2)
    r = _some_hom(rng, interface, r_target) if rng.random() < 0.5 else None
    return Rule(l, r or identity(interface), kind=kind), match, g


def case_rewrite(rng, kind):
    from csetrw import find_and_rewrite, rewrite

    loop = kind in ("dpo", "spo") and rng.random() < 0.5
    rule, match, g = _random_rule(rng, kind, pad=kind == "sqpo", loop=loop)
    rec = Record(g.schema)
    for name, x in (("L", rule.lhs), ("I", rule.interface), ("R", rule.rhs), ("G", g)):
        rec.fix(name, x)
    rec.map("l", rule.l)
    rec.map("r", rule.r)
    rec.map("match", match)
    try:
        rec.outcome("at.", rewrite(rule, match))
    except Exception as exc:  # refusals are part of the output
        rec.error(exc)
    try:
        outcomes = find_and_rewrite(rule, g)
        rec.data["found"] = len(outcomes)
        for i, out in enumerate(outcomes):
            rec.outcome(f"all{i}.", out)
    except Exception as exc:
        rec.data["find_error"] = type(exc).__name__
    return rec


def _carry_labels(label: dict, out) -> dict:
    """Labels of the parts of a step's result, from the host's labels.

    A part of K is labelled by its host part's label, its interface
    preimages and the labels of its column images; a result part by the
    sorted labels of the K and R parts the step sends to it. Each object's
    labels are then replaced by their ranks. Isomorphic steps label
    corresponding parts alike, whatever their part numbers.
    """
    k, maps = out.k, out.maps
    schema = k.schema
    if "interface_to_k" in maps:  # SPO: the interface is a piece J of I
        j_to_i, j_to_k = maps["interface_to_i"].comp, maps["interface_to_k"].comp
        interface = {o: list(zip(j_to_i[o], j_to_k[o])) for o in schema.objects}
        r_ids = maps["r_kept"].comp
    else:
        interface = {o: list(enumerate(maps["i_to_k"].comp[o], start=1)) for o in schema.objects}
        r_ids = {o: list(maps["r_to_result"].dom.parts(o)) for o in schema.objects}
    k_label: dict = {}
    for obj in schema.sources_first[::-1]:
        preimages = [[] for _ in k.parts(obj)]
        for i, part in sorted(interface[obj]):
            preimages[part - 1].append(i)
        structural = []
        for part, (g, pre) in enumerate(zip(maps["k_to_g"].comp[obj], preimages), start=1):
            images = tuple(k_label[gen.cod][k.column[gen.name][part - 1] - 1] for gen in schema.outgoing(obj))
            structural.append((label[obj][g - 1], tuple(pre), images))
        k_label[obj] = _ranks(structural)
    result_label = {}
    for obj in schema.objects:
        sources = [[] for _ in out.result.parts(obj)]
        for part, image in enumerate(maps["k_to_result"].comp[obj]):
            sources[image - 1].append((0, k_label[obj][part]))
        for r, image in zip(r_ids[obj], maps["r_to_result"].comp[obj]):
            sources[image - 1].append((1, r))
        result_label[obj] = _ranks([tuple(sorted(x)) for x in sources])
    return result_label


def _ranks(labels: list) -> list[int]:
    rank = {x: i for i, x in enumerate(sorted(set(labels)), start=1)}
    return [rank[x] for x in labels]


def case_chain(rng):
    """One random rule under DPO, SPO and SqPO, each result the next host.

    Each step rewrites at the first applicable match in a seeded shuffle
    of all matches (monic ones for SqPO); a chain with none stops there.
    The matches are first sorted by the labels `_carry_labels` gives the
    host's parts, so that two versions whose steps differ only in part
    numbers choose corresponding matches.
    """
    from csetrw import ComplementViolationsError, Rule, SearchOptions, homomorphisms, rewrite

    base, _, g = _random_rule(rng, "dpo", pad=True)
    rec = Record(g.schema)
    for name, x in (("L", base.lhs), ("I", base.interface), ("R", base.rhs), ("G", g)):
        rec.fix(name, x)
    rec.map("l", base.l)
    rec.map("r", base.r)
    objects = g.schema.objects
    for kind in ("dpo", "spo", "sqpo"):
        rule, host = Rule(base.l, base.r, kind=kind), g
        label = {o: list(g.parts(o)) for o in objects}
        for step in range(CHAIN_STEPS):
            matches = homomorphisms(rule.lhs, host, SearchOptions(monic=kind == "sqpo"))
            matches.sort(key=lambda m: [label[o][v - 1] for o in objects for v in m.comp[o]])
            rng.shuffle(matches)
            for match in matches:
                try:
                    out = rewrite(rule, match)
                    break
                except ComplementViolationsError:
                    continue
            else:
                rec.data[f"{kind} stuck at step"] = step
                break
            rec.outcome(f"{kind}{step}.", out)
            host, label = out.result, _carry_labels(label, out)
    return rec


def case_classifier(rng):
    """T(X) of a small X, recorded through its unit X -> T(X), and χ.

    Half of the X are drawn over a random acyclic schema, which has no
    equations; the other half are closed pieces of a 1x1 or 1x2 mesh over
    `delta2_schema`, whose equations tie each triangle's edges together.
    χ: A -> T(X) classifies a partial map from an A drawn the same way:
    a closed piece A' of A and a homomorphism A' -> X, found after at
    most three draws of A' (the last keeping nothing, so A' is empty).
    """
    from oracles import random_acyclic_schema

    from csetrw import gen_mesh, partial_map_classifier

    if rng.random() < 0.5:
        schema = random_acyclic_schema(rng)
        x, a = (_small(rng, schema, limit, max_parts=2) for limit in (4, 6))
    else:
        (x, _), (a, _) = (_sub(rng, gen_mesh(1, rng.randint(1, 2)), 0.6) for _ in range(2))
    rec = Record(x.schema)
    rec.fix("x", x)
    rec.fix("a", a)
    classifier = partial_map_classifier(x)
    rec.map("eta", classifier.eta)
    for keep in (0.6, 0.3, 0.0):
        piece, sub = _sub(rng, a, keep)
        f = _some_hom(rng, piece, x)
        if f is not None:
            break
    rec.fix("piece", piece)
    rec.map("sub", sub)
    rec.map("f", f)
    rec.map("chi", classifier.classify_partial(sub, f))
    return rec


def case_colimit(rng):
    """A diagram colimit with the coproduct of its nodes.

    Half of the diagrams have 1-3 nodes and up to 3 random arrows. The
    other half have up to 12 nodes, glued as the mesh benchmark glues
    cells: "edge" nodes are closed pieces of a "cell" node, included into
    it and mapped into another cell (a span), beside parallel arrows and
    self-arrows.
    """
    from oracles import random_acyclic_schema

    from csetrw import Diagram, coproduct, diagram_colimit, homomorphisms

    schema = random_acyclic_schema(rng)
    rec = Record(schema)
    if rng.random() < 0.5:
        nodes = [(f"n{i}", _small(rng, schema, 5, max_parts=2)) for i in range(rng.randint(1, 3))]
        arrows = []
        for _ in range(rng.randint(0, 3)):
            (s, src), (t, tgt) = rng.choice(nodes), rng.choice(nodes)
            h = _some_hom(rng, src, tgt)
            if h is not None:
                arrows.append((s, t, h))
    else:
        cells = [(f"c{i}", _small(rng, schema, 6, max_parts=2, min_parts=1)) for i in range(rng.randint(2, 6))]
        nodes, arrows = list(cells), []
        for k in range(rng.randint(1, 6)):  # spans: a piece of one cell glued into another
            (c, cell), (t, other) = rng.choice(cells), rng.choice(cells)
            piece, incl = _sub(rng, cell, 0.4)
            into = _some_hom(rng, piece, other)
            nodes.append((f"e{k}", piece))
            arrows.append((f"e{k}", c, incl))
            if into is not None:
                arrows.append((f"e{k}", t, into))
        labels = dict(nodes)
        for _ in range(rng.randint(0, 3)):  # parallel arrows and self-arrows
            s = rng.choice(list(labels))
            t = s if rng.random() < 0.5 else rng.choice(list(labels))
            homs = homomorphisms(labels[s], labels[t])
            for h in rng.sample(homs, min(2, len(homs))):
                arrows.append((s, t, h))
    for node, x in nodes:
        rec.fix(node, x)
    for k, (s, t, h) in enumerate(arrows):
        rec.map(f"{s}->{t}#{k}", h)
    _, legs = diagram_colimit(Diagram(nodes, arrows))
    for node, leg in legs.items():
        rec.map(f"leg.{node}", leg)
    _, injections = coproduct([x for _, x in nodes])
    for i, inj in enumerate(injections):
        rec.map(f"inj.{i}", inj)
    return rec


def case_compose(rng):
    """A chain of 2-6 random structured cospans with discrete feet, composed.

    The feet hold parts only at objects without outgoing generators, and
    each cospan's output foot is equal to the next one's input foot.
    """
    from oracles import random_acyclic_schema, random_instance

    from csetrw import StructuredCospan, Transformation, compose_cospans, make_instance

    schema = random_acyclic_schema(rng)
    rec = Record(schema)
    ends = [o for o in schema.objects if not schema.outgoing(o)]
    feet = [
        make_instance(schema, {o: rng.randint(0, 2) for o in ends}, {})
        for _ in range(rng.randint(3, 7))
    ]
    chain = []
    for k, (a, b) in enumerate(zip(feet, feet[1:])):
        apex = random_instance(rng, schema, max_parts=3, min_parts=1)
        legs = [
            Transformation(foot, apex, {o: [rng.randint(1, apex.card[o]) for _ in foot.parts(o)] for o in schema.objects})
            for foot in (a, b)
        ]
        rec.map(f"in{k}", legs[0])
        rec.map(f"out{k}", legs[1])
        chain.append(StructuredCospan(*legs))
    rec.fixed, rec.built = rec.built, {}  # everything so far is input
    acc = chain[0]
    for k, c in enumerate(chain[1:], start=1):
        acc = compose_cospans(acc, c)
        rec.map(f"composite{k}.in", acc.in_leg)
        rec.map(f"composite{k}.out", acc.out_leg)
    return rec


def _cospan(rng, apex, n_feet):
    from csetrw import StructuredCospan, Transformation, make_instance

    legs = []
    for _ in range(2):
        foot = make_instance(apex.schema, {"V": rng.randint(0, n_feet)}, {})
        vs = [rng.randint(1, apex.card["V"]) for _ in foot.parts("V")] if apex.card["V"] else []
        legs.append(Transformation(foot, apex, {"V": vs, "E": []}))
    return StructuredCospan(*legs)


def _sub_cospan(rng, cospan, keep):
    """A sub-cospan: a closed piece of the apex and the foot parts over it."""
    from csetrw import CospanMorphism, StructuredCospan, Transformation, make_instance

    apex, apex_map = _sub(rng, cospan.apex, keep)
    position = {v: i + 1 for i, v in enumerate(apex_map.comp["V"])}
    legs, maps = [], []
    for leg in (cospan.in_leg, cospan.out_leg):
        kept = [p for p in leg.dom.parts("V") if leg.comp["V"][p - 1] in position and rng.random() < 0.8]
        foot = make_instance(apex.schema, {"V": len(kept)}, {})
        legs.append(Transformation(foot, apex, {"V": [position[leg.comp["V"][p - 1]] for p in kept]}))
        maps.append(Transformation(foot, leg.dom, {"V": kept}))
    sub = StructuredCospan(*legs)
    return sub, CospanMorphism(sub, cospan, apex_map, *maps)


def case_open(rng):
    from oracles import random_instance

    from csetrw import CospanMorphism, OpenRule, StructuredCospan, coproduct, graph_schema, identity, open_rewrite

    schema = graph_schema()
    g = random_instance(rng, schema, max_parts=4, min_parts=1)
    g_cospan = _cospan(rng, g, 2)
    l_cospan, match = _sub_cospan(rng, g_cospan, 0.6)
    i_cospan, l = _sub_cospan(rng, l_cospan, 0.6)
    if rng.random() < 0.5:  # r creates: I's injection into I + X, R's legs through it
        _, (inj, _) = coproduct([i_cospan.apex, random_instance(rng, schema, max_parts=2, min_parts=1)])
        r_cospan = StructuredCospan(i_cospan.in_leg.compose(inj), i_cospan.out_leg.compose(inj))
    else:
        inj, r_cospan = identity(i_cospan.apex), i_cospan
    r = CospanMorphism(i_cospan, r_cospan, inj, identity(i_cospan.foot_in), identity(i_cospan.foot_out))
    rec = Record(schema)
    for name, c in (("G", g_cospan), ("L", l_cospan), ("I", i_cospan), ("R", r_cospan)):
        rec.map(f"{name}.in", c.in_leg)
        rec.map(f"{name}.out", c.out_leg)
    for name, m in (("match", match), ("l", l)):
        for level, t in (("apex", m.apex_map), ("in", m.in_map), ("out", m.out_map)):
            rec.map(f"{name}.{level}", t)
    rec.fixed, rec.built = rec.built, {}  # everything so far is input
    try:
        out = open_rewrite(OpenRule(l, r), match)
        for name, c in (("K", out.k), ("H", out.result)):
            rec.map(f"{name}.in", c.in_leg)
            rec.map(f"{name}.out", c.out_leg)
        for level, maps in out.maps.items():
            for name, t in maps.items():
                rec.map(f"{level}.{name}", t)
    except Exception as exc:  # refusals are part of the output
        rec.error(exc)
    return rec


def case_paths(rng):
    """`hom_paths` for every pair of objects and `paths_equal` on random pairs.

    The schema is a random acyclic one with 0-4 equations, each between
    two parallel paths of its generators. The pairs for `paths_equal`
    share their source and differ where the source has two paths; a
    pair with different targets is refused.
    """
    from oracles import random_acyclic_schema

    from csetrw import EndpointMismatchError, SchemaPath, SchemaPresentation, hom_paths, paths_equal

    bare = random_acyclic_schema(rng, max_objects=4, max_gens=6)
    paths = [(SchemaPath(o), o) for o in bare.objects]
    for path, at in paths:  # grows as it is walked
        paths += [(SchemaPath(path.source, path.components + (g.name,)), g.cod) for g in bare.outgoing(at)]
    parallel = [(p, q) for p, t in paths for q, u in paths if p.source == q.source and t == u and p != q]
    equations = [rng.choice(parallel) for _ in range(rng.randint(0, 4))] if parallel else []
    schema = SchemaPresentation(list(bare.objects), list(bare.generators), equations)
    rec = Record(schema)
    rec.data["equations"] = [[[p.source, *p.components] for p in eq] for eq in equations]
    rec.data["hom_paths"] = {
        f"{a} {b}": [[list(p.components) for p in cls] for cls in hom_paths(schema, a, b)]
        for a in schema.objects
        for b in schema.objects
    }
    equal = rec.data["paths_equal"] = []
    for _ in range(10):
        p, _ = rng.choice(paths)
        q = rng.choice([q for q, _ in paths if q.source == p.source and q != p] or [p])
        try:
            equal.append([list(p.components), list(q.components), paths_equal(schema, p, q)])
        except EndpointMismatchError:  # refusals are part of the output
            equal.append([list(p.components), list(q.components), "EndpointMismatchError"])
    return rec


def _readback(tg):
    """`check_discrete_opfibration` of tg: the instance it reads back, or its violations in order."""
    from csetrw import check_discrete_opfibration

    out = check_discrete_opfibration(tg)
    return [str(v) for v in out] if isinstance(out, list) else _inst(out)


def case_typed_graphs(rng):
    """The typed-graph view of X: `elements`, the readback and a slice over X.

    X is a random instance or, in half of the cases, a closed piece of a
    1x1 or 1x2 mesh, whose schema has equations. `check_discrete_opfibration`
    reads back X's element graph as it is, the same graph after edges are
    dropped, duplicated or retargeted within the type of their target (so
    that the typing stays a homomorphism), and a random typed graph over
    the schema's graph. A slice over X, whose total instance is the
    coproduct of 1-3 closed pieces of X typed by their inclusions, goes
    through `slice_to_cset` and back through `cset_to_slice`.
    """
    from oracles import GRAPH, random_acyclic_schema, random_typed_graph

    from csetrw import (
        SliceInstance, Transformation, TypedGraph, coproduct, cset_to_slice, elements, gen_mesh,
        make_instance, schema_graph, slice_to_cset,
    )

    if rng.random() < 0.5:
        x = _small(rng, random_acyclic_schema(rng), 8, max_parts=3)
    else:
        x, _ = _sub(rng, gen_mesh(1, rng.randint(1, 2)), 0.6)
    schema = x.schema
    rec = Record(schema)
    rec.fix("x", x)
    el = elements(x)
    rec.data["elements"] = {"graph": _inst(el.graph), "typing": _comp(el.typing)}
    rec.data["readback"] = _readback(el)
    types, over = el.typing.comp, {}
    for v, t in enumerate(types["V"], start=1):
        over.setdefault(t, []).append(v)
    edges, rate = [], rng.random() * 0.5  # each edge is changed with this probability
    for edge in zip(el.graph.column["src"], el.graph.column["tgt"], types["E"]):
        change = rng.choice(("drop", "duplicate", "retarget")) if rng.random() < rate else None
        if change == "drop":
            continue
        if change == "duplicate":
            edges.append(edge)
        elif change == "retarget":  # within the type of its target
            edge = (edge[0], rng.choice(over[types["V"][edge[1] - 1]]), edge[2])
        edges.append(edge)
    rng.shuffle(edges)
    src, tgt, edge_types = (list(col) for col in zip(*edges)) if edges else ([], [], [])
    graph = make_instance(GRAPH, {"V": el.graph.card["V"], "E": len(edges)}, {"src": src, "tgt": tgt})
    typing = Transformation(graph, el.typing.cod, {"V": types["V"], "E": edge_types})
    rec.data["mutated"] = {"graph": _inst(graph), "typing": _comp(typing)}
    rec.data["mutated readback"] = _readback(TypedGraph(graph, typing, schema))
    t = random_typed_graph(rng, schema_graph(schema), 8, 10)
    rec.data["random"] = {"graph": _inst(t.dom), "typing": _comp(t)}
    rec.data["random readback"] = _readback(TypedGraph(t.dom, t, schema))
    pieces = [_sub(rng, x, 0.7) for _ in range(rng.randint(1, 3))]
    total, _ = coproduct([piece for piece, _ in pieces])
    s = SliceInstance(Transformation(total, x, {o: [v for _, incl in pieces for v in incl.comp[o]] for o in schema.objects}))
    rec.data["slice"] = {"total": _inst(total), "typing": _comp(s.typing)}
    migrated = slice_to_cset(s)
    rec.data["migrated"] = _inst(migrated.instance)
    back = cset_to_slice(migrated.instance, x)
    rec.data["back"] = {"total": _inst(back.total), "typing": _comp(back.typing)}
    return rec


FAMILIES = {
    "homomorphisms": case_homs,
    "homs deep": case_homs_deep,
    "pushout/pullback": case_limits,
    "restrict": case_restrict,
    "complement": case_complement,
    "rewrite dpo": lambda rng: case_rewrite(rng, "dpo"),
    "rewrite spo": lambda rng: case_rewrite(rng, "spo"),
    "rewrite sqpo": lambda rng: case_rewrite(rng, "sqpo"),
    "rewrite chain": case_chain,
    "classifier": case_classifier,
    "colimit": case_colimit,
    "compose cospans": case_compose,
    "open_rewrite": case_open,
    "paths": case_paths,
    "typed graphs": case_typed_graphs,
}


def emit() -> None:
    for family, make in FAMILIES.items():
        for i in range(CASES):
            rec = make(random.Random(f"{family}:{i}"))
            line = json.dumps(rec.obj(), sort_keys=True, separators=(",", ":"))
            sys.stdout.write(f"{family}\t{i}\t{line}\n")


# ---------------------------------------------------------------------------
# Comparison (runs in this checkout's interpreter)


def _instance(schema, doc):
    from csetrw import Generator, SchemaPresentation, make_instance

    s = SchemaPresentation(schema["objects"], [Generator(*g) for g in schema["generators"]])
    return make_instance(s, doc["card"], doc["columns"])


def isomorphic_records(a: dict, b: dict) -> bool:
    """Built instances of a and b related by isomorphisms that carry maps across.

    Built instances that no chain of maps joins are matched one group at
    a time, each by a depth-first search with an explicit stack, so a
    failure in one group never backtracks through another.
    """
    from csetrw import SearchOptions, homomorphisms

    if (a["schema"], a["fixed"], a["data"]) != (b["schema"], b["fixed"], b["data"]):
        return False
    if a["built"].keys() != b["built"].keys() or a["maps"].keys() != b["maps"].keys():
        return False
    if any(a["maps"][m][:2] != b["maps"][m][:2] for m in a["maps"]):
        return False
    objects = a["schema"]["objects"]
    phi = {
        name: {o: list(range(1, doc["card"].get(o, 0) + 1)) for o in objects}
        for name, doc in a["fixed"].items()
    }
    maps = [(dom, cod, ca, b["maps"][m][2]) for m, (dom, cod, ca) in a["maps"].items()]
    ends = {x: [] for x in a["built"]}  # the maps into or out of each built instance
    for m in maps:
        for x in {m[0], m[1]} & ends.keys():
            ends[x].append(m)

    def commutes(dom, cod, ca, cb) -> bool:
        return all(
            phi[cod][o][v - 1] == cb[o][phi[dom][o][i] - 1] for o in objects for i, v in enumerate(ca[o])
        )

    def pins(x):
        """Parts of x whose image the maps to and from assigned instances force."""
        out: dict[str, dict[int, int]] = {o: {} for o in objects}
        for dom, cod, ca, cb in ends[x]:
            for o in objects:
                if cod == x and dom in phi:
                    forced = [(v, cb[o][phi[dom][o][i] - 1]) for i, v in enumerate(ca[o])]
                elif dom == x and cod in phi:
                    forced = []
                    for i, v in enumerate(ca[o], start=1):
                        pre = [j for j, w in enumerate(cb[o], start=1) if w == phi[cod][o][v - 1]]
                        if not pre:
                            return None
                        if len(pre) == 1:
                            forced.append((i, pre[0]))
                else:
                    continue
                for part, value in forced:
                    if out[o].setdefault(part, value) != value:
                        return None
        return out

    def isomorphisms(x):
        """The isomorphisms between x's two versions that respect the pins."""
        xa, xb = _instance(a["schema"], a["built"][x]), _instance(a["schema"], b["built"][x])
        forced = pins(x)
        if forced is None or xa.card != xb.card:
            return iter(())
        return iter(homomorphisms(xa, xb, SearchOptions(monic=True, initial=forced)))

    def advance(x, isos) -> bool:
        """Give x its next isomorphism that fits the assigned ones, if any is left."""
        for iso in isos:
            phi[x] = iso.comp
            if all(commutes(*m) for m in ends[x] if m[0] in phi and m[1] in phi):
                return True
        phi.pop(x, None)
        return False

    def solve(group: list[str]) -> bool:
        todo, stack = list(group), []
        while todo:
            # the instance with the most maps to assigned ones goes next
            x = max(todo, key=lambda n: sum(m[0] in phi or m[1] in phi for m in ends[n]))
            todo.remove(x)
            stack.append((x, isomorphisms(x)))
            while stack and not advance(*stack[-1]):
                todo.append(stack.pop()[0])
            if not stack:
                return False
        return True

    if not all(commutes(*m) for m in maps if m[0] in phi and m[1] in phi):
        return False
    root = {x: x for x in a["built"]}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for dom, cod, _, _ in maps:
        if dom in root and cod in root:
            root[find(dom)] = find(cod)
    groups: dict[str, list[str]] = {}
    for x in a["built"]:
        groups.setdefault(find(x), []).append(x)
    return all(map(solve, groups.values()))


def run_side(src: Path) -> dict[tuple[str, int], str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--emit"],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        sys.exit(f"corpus failed on {src}:\n{proc.stderr}")
    out = {}
    for line in proc.stdout.splitlines():
        family, i, record = line.split("\t")
        out[family, int(i)] = record
    return out


def export(rev: str, into: Path) -> Path:
    archive = into / "rev.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
        kw = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into / "rev", **kw)
    return into / "rev" / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", metavar="REV", help="git revision to compare this checkout with")
    parser.add_argument("--iso", action="store_true", help="accept records equal up to isomorphism")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit()
        return 0
    if not args.against:
        parser.error("--against REV is required")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        theirs = run_side(export(args.against, Path(tmp)))
    ours = run_side(ROOT / "src")
    differ = 0
    for family in FAMILIES:
        keys = [k for k in ours if k[0] == family]
        same = [k for k in keys if ours[k] == theirs.get(k)]
        renumbered = [
            k for k in keys
            if k not in same and args.iso and k in theirs
            and isomorphic_records(json.loads(theirs[k]), json.loads(ours[k]))
        ]
        bad = [k for k in keys if k not in same and k not in renumbered]
        differ += len(bad)
        line = f"{family:20} {len(keys):4} cases  {len(same):4} identical"
        if args.iso:
            line += f"  {len(renumbered):4} isomorphic"
        print(line + f"  {len(bad):4} differ")
        if bad:
            k = bad[0]
            print(f"  first difference, case {k[1]}:\n    {args.against}: {theirs.get(k)}\n    here: {ours[k]}")
    print(f"{differ} differing case(s) against {args.against} in {time.perf_counter() - start:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
