"""The four workloads: inputs, the timed op, its traced replay and its checks.

Every workload draws its inputs from the seed in __init__, writes them as
JSON documents in `documents()` and loads them through csetrw.jsonio in
`load()`; those two are the timed set-up. A round is a fixed list of ops
(`ops_per_round`); `op(i)` returns the engine call that is timed and the
replay that the traced run makes of it, and `check(i, out)` verifies the
output and moves the workload on to the next op.
"""

from __future__ import annotations

import json
import random

import checks
import grid
from checks import expect
from spans import ROOT

from csetrw import (
    Transformation,
    check_pushout_complement,
    classifier_map,
    compose_cospans,
    coproduct,
    diagram_colimit,
    final_pullback_complement,
    homomorphisms,
    identity,
    is_natural,
    partial_map_classifier,
    pullback,
    pushout,
    pushout_complement,
    restrict,
    rewrite,
    validate_instance,
)
from csetrw.instance import build_index
from csetrw.jsonio import (
    Workspace,
    detect_kind,
    parse_cospan,
    parse_diagram,
    parse_instance,
    parse_rule,
    parse_schema,
)
from csetrw.rewrite import RewriteOutcome, deletion_closure

OBJECTS = ("V", "E", "T")


class Workload:
    name = ""
    ops_per_round = 0

    def documents(self) -> dict[str, str]:
        raise NotImplementedError

    def load(self, texts: dict[str, str], tr=None) -> None:
        """Parse every document as the CLI does: json.loads, detect_kind,
        then the parser for the kind, schemas resolved by name."""
        self.ws = Workspace()
        self.tr = tr
        obj = json.loads(texts["d2"])
        detect_kind(obj)
        self.ws.schemas["d2"] = self._timed(parse_schema, obj)

    def parse(self, parser, text: str):
        obj = json.loads(text)
        detect_kind(obj)
        return self._timed(parser, obj, self.ws.resolve)

    def _timed(self, parser, *args):
        if self.tr is None:
            return parser(*args)
        return self.tr.call("jsonio.parse", parser, *args)

    def start_round(self) -> None:
        pass

    def end_round(self) -> None:
        pass

    def results(self, out) -> int:
        return 0

    def output_parts(self, out) -> int:
        return 0


def parts(x) -> int:
    return sum(x.card.values())


def check_maps(outcome: RewriteOutcome, what: str) -> None:
    for name, end, x in (("k_to_g", "dom", outcome.k), ("k_to_result", "cod", outcome.result)):
        got = getattr(outcome.maps[name], end)
        expect(got is x or got == x, f"{what}: {name} does not meet the returned instance")
    for name, t in outcome.maps.items():
        checks.natural(t, f"{what}: {name}")
    checks.valid(outcome.result, f"{what}: result")
    checks.valid(outcome.k, f"{what}: K")


def rewrite_parts(outcome: RewriteOutcome) -> int:
    return parts(outcome.k) + parts(outcome.result)


def transport(ids: dict, k_to_g: list[int], k_to_result: list[int], size: int) -> dict:
    """Carry label -> host id forward to label -> result id; labels of
    deleted parts are dropped."""
    new = [0] * size
    for k, g in zip(k_to_result, k_to_g):
        new[g - 1] = k
    return {label: new[i - 1] for label, i in ids.items() if new[i - 1]}


# ---------------------------------------------------------------------------
# Replays: the public calls each engine makes, one span each. Calls the
# engine makes inside another call are re-run afterwards as estimates.


def natural_legs(tr, rule, match) -> None:
    for t in (match, rule.l, rule.r):
        expect(not tr.call("transform.is_natural", is_natural, t), "replay: map not natural")


def dpo_calls(tr, rule, match) -> RewriteOutcome:
    with tr.span("rewrite.dpo"):
        natural_legs(tr, rule, match)
        rule.l.is_monic()
        i_to_k, k_to_g = tr.call("colimits.pushout_complement", pushout_complement, rule.l, match)
        po = tr.call("colimits.pushout", pushout, rule.r, i_to_k)
    return RewriteOutcome(
        result=po.apex,
        k=i_to_k.cod,
        maps={
            "match": match,
            "i_to_k": i_to_k,
            "k_to_g": k_to_g,
            "r_to_result": po.leg_b,
            "k_to_result": po.leg_c,
        },
    )


def instance_estimates(tr, parent, x) -> None:
    """The make_instance work a constructor did on its output x."""
    tr.estimate(parent, "instance.validate", validate_instance, x)
    tr.estimate(parent, "instance.build_index", build_index, x)


def dpo_estimates(tr, rule, match, out: RewriteOutcome) -> None:
    pc = tr.last["colimits.pushout_complement"]
    tr.estimate(pc, "colimits.check_pushout_complement", check_pushout_complement, rule.l, match)
    instance_estimates(tr, pc, out.k)
    instance_estimates(tr, "colimits.pushout", out.result)


def sqpo_calls(tr, rule, match) -> RewriteOutcome:
    with tr.span("rewrite.sqpo"):
        natural_legs(tr, rule, match)
        match.is_monic()
        i_to_k, k_to_g = tr.call(
            "colimits.final_pullback_complement", final_pullback_complement, rule.l, match
        )
        po = tr.call("colimits.pushout", pushout, rule.r, i_to_k)
    return RewriteOutcome(
        result=po.apex,
        k=i_to_k.cod,
        maps={
            "match": match,
            "i_to_k": i_to_k,
            "k_to_g": k_to_g,
            "r_to_result": po.leg_b,
            "k_to_result": po.leg_c,
        },
    )


def sqpo_estimates(tr, rule, match, out: RewriteOutcome) -> None:
    fpc = tr.last["colimits.final_pullback_complement"]
    t_l = tr.estimate(fpc, "colimits.partial_map_classifier", partial_map_classifier, match.dom)
    t_i = tr.estimate(fpc, "colimits.partial_map_classifier", partial_map_classifier, rule.l.dom)
    chi = t_l.classify_partial(match, identity(match.dom))
    tr.estimate(fpc, "colimits.pullback", pullback, chi, classifier_map(t_i, t_l, rule.l))
    instance_estimates(tr, "colimits.pullback", out.k)
    instance_estimates(tr, "colimits.pushout", out.result)


def spo_estimates(tr, rule, match, out: RewriteOutcome) -> None:
    """SPO's steps are not public calls, so the whole engine call is one
    span and these re-run its parts. The deletion closure is the single
    pass a rule with an empty interface makes."""
    spo = tr.last["rewrite.spo"]
    for t in (match, rule.l, rule.r):
        tr.estimate(spo, "transform.is_natural", is_natural, t)
    g = match.cod
    core = {
        obj: {match.comp[obj][p - 1] for p in rule.lhs.parts(obj) if p not in rule.l.image(obj)}
        for obj in OBJECTS
    }
    dead = tr.estimate(spo, "rewrite.deletion_closure", deletion_closure, g, core)
    kept = {obj: set(g.parts(obj)) - dead[obj] for obj in OBJECTS}
    tr.estimate(spo, "instance.restrict", restrict, g, kept)
    instance_estimates(tr, "instance.restrict", out.k)
    j_to_k, j_to_i, r_kept = (out.maps[k] for k in ("interface_to_k", "interface_to_i", "r_kept"))
    back = {obj: {old: new + 1 for new, old in enumerate(r_kept.comp[obj])} for obj in OBJECTS}
    j_to_r = Transformation(
        j_to_k.dom,
        r_kept.dom,
        {obj: [back[obj][rule.r.comp[obj][i - 1]] for i in j_to_i.comp[obj]] for obj in OBJECTS},
    )
    tr.estimate(spo, "colimits.pushout", pushout, j_to_r, j_to_k)
    instance_estimates(tr, "colimits.pushout", out.result)


# ---------------------------------------------------------------------------


class Match(Workload):
    """Every homomorphism of the quadrilateral pattern into small hosts."""

    name = "match"

    def __init__(self, seed: int, small: bool = False):
        rows, cols, hosts = (1, 2, 2) if small else (2, 3, 32)
        self.grids = [grid.seeded_grid(rows, cols, seed, f"match{i}") for i in range(hosts)]
        self.expected = [g.d0_pairs() for g in self.grids]
        self.ops_per_round = hosts

    def documents(self):
        texts = {"d2": json.dumps(grid.D2_SCHEMA), "pattern": json.dumps(grid.cell_doc(grid.MAIN))}
        for i, g in enumerate(self.grids):
            texts[f"host{i}"] = json.dumps(g.doc())
        return texts

    def load(self, texts, tr=None):
        super().load(texts, tr)
        self.pattern = self.parse(parse_instance, texts["pattern"])
        self.hosts = [self.parse(parse_instance, texts[f"host{i}"]) for i in range(len(self.grids))]

    def op(self, i):
        pattern, host = self.pattern, self.hosts[i]

        def replay(tr):
            with tr.span(ROOT):
                return tr.call("search.homomorphisms", homomorphisms, pattern, host)

        return (lambda: homomorphisms(pattern, host)), replay

    def check(self, i, out):
        what = f"match host {i}"
        got = checks.d0_pairs(out, self.pattern, self.hosts[i], what)
        expect(len(got) > 0, f"{what}: no matches")
        expect(got == self.expected[i], f"{what}: {len(got)} matches, expected {len(self.expected[i])}")

    def results(self, out):
        return len(out)


class Flip(Workload):
    """A chain of DPO edge flips on one triangulation, each rewriting the
    previous result at a match the benchmark computes from the grid."""

    name = "flip"

    def __init__(self, seed: int, small: bool = False):
        n, steps = (4, 3) if small else (32, 64)
        self.grid = grid.seeded_grid(n, n, seed, "flip")
        cells = sorted(cell for cell, d in self.grid.diag.items() if d == grid.MAIN)
        random.Random(f"flip-order:{seed}").shuffle(cells)
        self.cells = cells[:steps]
        self.ops_per_round = len(self.cells)
        self.expected = self.grid.flipped(self.cells).shape()
        self.start_ids = self.grid.ids()

    def documents(self):
        return {
            "d2": json.dumps(grid.D2_SCHEMA),
            "rule": json.dumps(grid.flip_rule_doc()),
            "host": json.dumps(self.grid.doc()),
        }

    def load(self, texts, tr=None):
        super().load(texts, tr)
        self.rule = self.parse(parse_rule, texts["rule"])
        self.host0 = self.parse(parse_instance, texts["host"])

    def start_round(self):
        self.host = self.host0
        self.ids = {obj: dict(m) for obj, m in self.start_ids.items()}

    def op(self, i):
        r, c = self.cells[i]
        ids = self.ids
        comp = {
            "V": [ids["V"][grid.shift(v, r, c)] for v in grid.CELL_VERTICES],
            "E": [ids["E"][grid.shift(e, r, c)] for e in grid.cell_edges(grid.MAIN)],
            "T": [ids["T"][t] for t in grid.cell_triangles(r, c, grid.MAIN)],
        }
        rule = self.rule
        match = Transformation(rule.lhs, self.host, comp)

        def replay(tr):
            with tr.span(ROOT):
                out = dpo_calls(tr, rule, match)
            dpo_estimates(tr, rule, match, out)
            return out

        return (lambda: rewrite(rule, match)), replay

    def check(self, i, out):
        r, c = self.cells[i]
        what = f"flip step {i} at cell {r},{c}"
        expect(out.result.card == self.host.card, f"{what}: cardinalities changed")
        check_maps(out, what)
        kg, kr = out.maps["k_to_g"].comp, out.maps["k_to_result"].comp
        ids = {obj: transport(self.ids[obj], kg[obj], kr[obj], self.host.card[obj]) for obj in OBJECTS}
        expect(len(ids["E"]) == len(self.ids["E"]) - 1, f"{what}: not exactly one edge deleted")
        expect(len(ids["T"]) == len(self.ids["T"]) - 2, f"{what}: not exactly two triangles deleted")
        made = out.maps["r_to_result"].comp
        kept = [ids["V"][grid.shift(v, r, c)] for v in grid.CELL_VERTICES]
        expect(made["V"] == kept, f"{what}: r_to_result disagrees with k_to_result on corners")
        ids["E"][(grid.ANTI, r, c)] = made["E"][4]
        for t, part in zip(grid.cell_triangles(r, c, grid.ANTI), made["T"]):
            ids["T"][t] = part
        self.ids, self.host = ids, out.result

    def end_round(self):
        what = "flip chain end"
        vertex_of = checks.invert(self.ids["V"])
        checks.same_shape(self.host, vertex_of, self.expected, what)
        src, tgt = self.host.column["src"], self.host.column["tgt"]
        for label, e in self.ids["E"].items():
            expect((vertex_of[src[e - 1]], vertex_of[tgt[e - 1]]) == grid.edge_ends(label),
                   f"{what}: edge {label} tracked to the wrong part")
        d1, d2 = self.host.column["d1"], self.host.column["d2"]
        for label, t in self.ids["T"].items():
            got = (vertex_of[src[d1[t - 1] - 1]], vertex_of[tgt[d1[t - 1] - 1]], vertex_of[tgt[d2[t - 1] - 1]])
            expect(got == grid.corners(label), f"{what}: triangle {label} tracked to the wrong part")

    def output_parts(self, out):
        return rewrite_parts(out)


class Sesqui(Workload):
    """Clone a vertex with SqPO, then delete one copy with SPO."""

    name = "sesqui"

    def __init__(self, seed: int, small: bool = False):
        n, steps = (3, 4) if small else (16, 32)
        self.grid = grid.seeded_grid(n, n, seed, "sesqui")
        rng = random.Random(f"sesqui-ops:{seed}")
        self.picks = [(rng.choice(self.grid.vertices), rng.randrange(2)) for _ in range(steps)]
        self.ops_per_round = steps
        self.expected = self.grid.shape()
        self.start_ids = self.grid.ids()["V"]

    def documents(self):
        return {
            "d2": json.dumps(grid.D2_SCHEMA),
            "clone": json.dumps(grid.clone_rule_doc()),
            "delete": json.dumps(grid.delete_rule_doc()),
            "host": json.dumps(self.grid.doc()),
        }

    def load(self, texts, tr=None):
        super().load(texts, tr)
        self.clone = self.parse(parse_rule, texts["clone"])
        self.delete = self.parse(parse_rule, texts["delete"])
        self.host0 = self.parse(parse_instance, texts["host"])
        self.profile = checks.degree_profile(self.host0)

    def start_round(self):
        self.host = self.host0
        self.vid = dict(self.start_ids)

    def op(self, i):
        label, doomed = self.picks[i]
        clone, delete = self.clone, self.delete
        m1 = Transformation(clone.lhs, self.host, {"V": [self.vid[label]]})

        def second(o1):
            copy = o1.maps["r_to_result"].comp["V"][doomed]
            return Transformation(delete.lhs, o1.result, {"V": [copy]})

        def engine():
            o1 = rewrite(clone, m1)
            return o1, rewrite(delete, second(o1))

        def replay(tr):
            with tr.span(ROOT):
                o1 = sqpo_calls(tr, clone, m1)
                m2 = second(o1)
                o2 = tr.call("rewrite.spo", rewrite, delete, m2)
            sqpo_estimates(tr, clone, m1, o1)
            spo_estimates(tr, delete, m2, o2)
            return o1, o2

        return engine, replay

    def check(self, i, out):
        o1, o2 = out
        label, doomed = self.picks[i]
        what = f"sesqui op {i} at vertex {label}"
        host, v = self.host, self.vid[label]
        ins, outs, tris = checks.incidence(host)[v - 1]
        grown = {"V": host.card["V"] + 1, "E": host.card["E"] + ins + outs, "T": host.card["T"] + tris}
        expect(o1.result.card == grown, f"{what}: clone gave {o1.result.card}, expected {grown}")
        check_maps(o1, f"{what}: clone")
        expect(o2.result.card == host.card, f"{what}: delete gave {o2.result.card}, expected {host.card}")
        expect(checks.degree_profile(o2.result) == self.profile, f"{what}: degree profile changed")
        check_maps(o2, f"{what}: delete")
        kg, kr = o1.maps["k_to_g"].comp["V"], o1.maps["k_to_result"].comp["V"]
        copies = o1.maps["r_to_result"].comp["V"]
        expect(sorted(k for k, g in zip(kr, kg) if g == v) == sorted(copies), f"{what}: copies disagree")
        others = {lab: part for lab, part in self.vid.items() if lab != label}
        vid = transport(others, kg, kr, host.card["V"])
        vid[label] = copies[1 - doomed]
        vid = transport(vid, o2.maps["k_to_g"].comp["V"], o2.maps["k_to_result"].comp["V"], o1.result.card["V"])
        expect(len(vid) == host.card["V"], f"{what}: a vertex other than the doomed copy was lost")
        checks.same_shape(o2.result, checks.invert(vid), self.expected, what)
        self.vid, self.host = vid, o2.result

    def output_parts(self, out):
        return rewrite_parts(out[0]) + rewrite_parts(out[1])


def diagram_doc(g: grid.Grid) -> dict:
    """Single-cell pieces glued along every interior edge."""
    nodes = [{"id": f"cell{r},{c}", "instance": grid.cell_doc(g.diag[r, c])} for r, c in sorted(g.diag)]
    arrows = []
    shared = [("h", r, c) for r in range(1, g.rows) for c in range(g.cols)]
    shared += [("v", r, c) for r in range(g.rows) for c in range(1, g.cols)]
    for e in shared:
        kind, r, c = e
        node = f"{kind}{r},{c}"
        nodes.append({"id": node, "instance": grid.instance_doc(list(grid.edge_ends(e)), [e], [])})
        for cr, cc in ((r - 1, c), (r, c)) if kind == "h" else ((r, c - 1), (r, c)):
            local_edges = grid.cell_edges(g.diag[cr, cc])
            comp = {
                "V": [grid.CELL_VERTICES.index(grid.shift(p, -cr, -cc)) + 1 for p in grid.edge_ends(e)],
                "E": [local_edges.index(grid.shift(e, -cr, -cc)) + 1],
            }
            arrows.append({"src": node, "tgt": f"cell{cr},{cc}", "map": {"comp": comp}})
    return {"nodes": nodes, "arrows": arrows}


def strip_docs(g: grid.Grid) -> list[dict]:
    """One cospan per column of cells, with its left and right boundary
    vertices as the feet."""
    foot = grid.vertices_doc(g.rows + 1)
    docs = []
    for j in range(g.cols):
        strip = grid.Grid(g.rows, 1, {(r, 0): g.diag[r, j] for r in range(g.rows)})
        vid = strip.ids()["V"]
        docs.append({
            "apex": strip.doc(),
            "feet": [foot, foot],
            "legs": [{"comp": {"V": [vid[r, side] for r in range(g.rows + 1)]}} for side in (0, 1)],
        })
    return docs


class Glue(Workload):
    """Assemble meshes from pieces: a diagram colimit of the cells, and a
    composite of column strips as structured cospans."""

    name = "glue"

    def __init__(self, seed: int, small: bool = False):
        n, meshes = (3, 2) if small else (16, 4)
        self.grids = [grid.seeded_grid(n, n, seed, f"glue{i}") for i in range(meshes)]
        self.expected = [g.shape() for g in self.grids]
        self.ops_per_round = meshes

    def documents(self):
        texts = {"d2": json.dumps(grid.D2_SCHEMA)}
        for i, g in enumerate(self.grids):
            texts[f"diagram{i}"] = json.dumps(diagram_doc(g))
            for j, doc in enumerate(strip_docs(g)):
                texts[f"strip{i},{j}"] = json.dumps(doc)
        return texts

    def load(self, texts, tr=None):
        super().load(texts, tr)
        self.diagrams = [self.parse(parse_diagram, texts[f"diagram{i}"]) for i in range(len(self.grids))]
        self.strips = [
            [self.parse(parse_cospan, texts[f"strip{i},{j}"]) for j in range(g.cols)]
            for i, g in enumerate(self.grids)
        ]

    def op(self, i):
        d, strips = self.diagrams[i], self.strips[i]

        def engine():
            apex, legs = diagram_colimit(d)
            acc = strips[0]
            for s in strips[1:]:
                acc = compose_cospans(acc, s)
            return apex, legs, acc

        def replay(tr):
            steps = []
            with tr.span(ROOT):
                apex, legs = tr.call("open_systems.diagram_colimit", diagram_colimit, d)
                colimit = tr.last["open_systems.diagram_colimit"]
                acc = strips[0]
                for s in strips[1:]:
                    nxt = tr.call("open_systems.compose_cospans", compose_cospans, acc, s)
                    steps.append((tr.last["open_systems.compose_cospans"], acc, s, nxt))
                    acc = nxt
            total, _ = tr.estimate(colimit, "colimits.coproduct", coproduct, [x for _, x in d.nodes])
            instance_estimates(tr, "colimits.coproduct", total)
            instance_estimates(tr, colimit, apex)
            for sid, a, b, c in steps:
                po = tr.estimate(sid, "colimits.pushout", pushout, a.out_leg, b.in_leg)
                instance_estimates(tr, "colimits.pushout", po.apex)
                tr.estimate(sid, "transform.is_natural", is_natural, c.in_leg)
                tr.estimate(sid, "transform.is_natural", is_natural, c.out_leg)
            return apex, legs, acc

        return engine, replay

    def check(self, i, out):
        apex, legs, composite = out
        g = self.grids[i]
        what = f"glue mesh {i}"
        rows, cols = g.rows, g.cols
        closed = {
            "V": (rows + 1) * (cols + 1),
            "E": rows * (cols + 1) + (rows + 1) * cols + rows * cols,
            "T": 2 * rows * cols,
        }
        expect(apex.card == closed, f"{what}: colimit apex {apex.card}, expected {closed}")
        checks.valid(apex, f"{what}: colimit apex")
        for node, leg in legs.items():
            checks.natural(leg, f"{what}: leg {node}")
        point: dict[int, tuple[int, int]] = {}
        for r, c in g.diag:
            corners = legs[f"cell{r},{c}"].comp["V"]
            for (dr, dc), x in zip(grid.CELL_VERTICES, corners):
                expect(point.setdefault(x, (r + dr, c + dc)) == (r + dr, c + dc),
                       f"{what}: two grid points glued into apex vertex {x}")
        checks.same_shape(apex, point, self.expected[i], f"{what}: colimit apex")
        glued = dict(closed, E=closed["E"] + (cols - 1) * rows)
        got = composite.apex.card
        expect(got == glued, f"{what}: strip composite {got}, expected {glued}")
        checks.valid(composite.apex, f"{what}: strip composite")
        for leg in (composite.in_leg, composite.out_leg):
            checks.natural(leg, f"{what}: strip composite leg")
            checks.monic(leg, f"{what}: strip composite leg")



WORKLOADS = {w.name: w for w in (Match, Flip, Sesqui, Glue)}
