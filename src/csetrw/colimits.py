"""Componentwise (co)limits of C-set instances.

Everything here reduces to finite-set constructions applied one object at
a time. A pushout along a monic f: A -> B is C, then B∖f(A) in B's order:
`_pushout` builds it with no quotient from `f.append_program`, compiled
once per map and kept on it, and hands the apex C's preimage lists.
Every other pushout, coproducts and diagram colimits share one quotient
of a disjoint union by union-find: summands stack in order (C before B
for a pushout of B <- A -> C; diagram nodes in declaration order) and
classes are numbered by their smallest part, so both paths number alike.
Python-level work there is one step per glued pair and one per node: an
inline union-find with path halving over one flat list of slots, class
ids laid down as runs between the slots that stopped being roots, and
every summand's columns pushed down with `map` and stripped of merged
slots by one `compress`. Each output list is built once and kept as it is.
Pullbacks join agreeing pairs through a hash of the second leg's
preimages. `pushout`, `pullback` and `final_pullback_complement` check
that their input maps are natural, so columns descend and every output
is built with `_trusted`, unchecked. A rewrite step checks its match
once and calls `_final_pullback_complement` and `_pushout`, which check
nothing; a rule's monic r keeps its program across steps.

The partial map classifier T(X) is built sinks first, with no search.
χ, the map classifying a partial map into X, is one more pass in that
order over the parts it is asked for; any other part classifies as ⊥,
the map defined nowhere, whose T-part per object is fixed with T(X).
A pushout complement reads only what it deletes, and a final pullback
complement only the parts of G from which some path reaches the match,
the only parts whose χ is not ⊥; `_quotient` hands on no lists.
T(X) is built on first use and kept on X, like the preimage index, and
T(l) and its fibres on l, so a rule's T(L), T(I) and T(l) are built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, compress
from operator import attrgetter, itemgetter

from .errors import ComplementViolationsError, CyclicSchemaError, NotMonicError
from .instance import (
    CSetInstance, _PreimageIndex, _evaluate, _naturals, _patched, _restrict_removing, _trusted, deletion_closure,
)
from .schema import SchemaPath, is_acyclic
from .transform import Transformation, _adopt, identity, is_natural


@dataclass
class PushoutResult:
    apex: CSetInstance
    leg_b: Transformation
    leg_c: Transformation
    f: Transformation
    g: Transformation

    def universal(self, u: Transformation, v: Transformation) -> Transformation:
        """Mediating map out of the apex for a commuting cocone (u, v)."""
        if u.cod != v.cod:
            raise ValueError("cocone legs must share their codomain")
        if self.f.compose(u) != self.g.compose(v):
            raise ValueError("cocone does not commute with the defining span")
        return cocone_induced(self.leg_b, self.leg_c, u, v)


def cocone_induced(
    leg_b: Transformation, leg_c: Transformation, u: Transformation, v: Transformation
) -> Transformation:
    """The map out of a jointly-surjective cospan determined by (u, v)."""
    apex = leg_b.cod
    comp: dict[str, list[int]] = {}
    for obj in apex.schema.objects:
        col = [0] * apex.card[obj]
        for part, target in zip(leg_b.comp[obj], u.comp[obj]):
            col[part - 1] = target
        for part, target in zip(leg_c.comp[obj], v.comp[obj]):
            if col[part - 1] and col[part - 1] != target:
                raise ValueError(f"cocone legs disagree on part {part} of {obj!r}")
            col[part - 1] = target
        if 0 in col:
            raise ValueError(f"legs do not jointly cover object {obj!r}")
        comp[obj] = col
    return _adopt(apex, u.cod, comp)


def _quotient(
    summands: list[CSetInstance], glue: list[tuple[int, int, dict | None, dict]]
) -> tuple[CSetInstance, list[dict[str, list[int]]]]:
    """Quotient of the disjoint union of `summands`, one object at a time.

    Each glue entry (i, j, f, g) identifies part f[obj][k] of summand i
    with part g[obj][k] of summand j for every k; f None stands for part
    k + 1 itself, so an arrow's components glue each part of i to its
    image in j. Parts stack in summand order as slots 1..n and classes are
    numbered densely by their smallest slot. Returns the apex and, per
    summand, the class of each of its parts. Every summand's columns go
    through its lookups; a pushout along a monic leg never comes here.
    """
    schema = summands[0].schema
    if list(map(attrgetter("schema"), summands)).count(schema) != len(summands):  # tries `is` first
        raise ValueError("colimit summands must share a schema")
    cards = [x.card for x in summands]
    card: dict[str, int] = {}
    legs_by_obj: list[list[list[int]]] = []  # per object, each summand's leg
    lookups: dict[str, list] = {}  # per codomain object, each summand's part -> class
    roots: dict[str, bytearray | None] = {}  # per object, which stacked slots are roots
    for obj in schema.objects:
        # summand k holds slots starts[k] + 1 .. starts[k + 1]
        starts = list(accumulate(map(itemgetter(obj), cards), initial=0))
        n = starts[-1]
        # parent and the class ids copy slices of the shared ints 0..n
        base = _naturals(n)
        parent = base[: n + 1]
        merged: list[int] = []  # slots that stopped being roots
        for i, j, f, g in glue:
            col = g[obj]
            if not col:
                continue
            si, sj = starts[i], starts[j]
            for a, b in enumerate(col, si + 1) if f is None else zip(map(si.__add__, f[obj]), col):
                b += sj
                # path halving; a class's root is its smallest slot
                while a != parent[a]:
                    parent[a] = a = parent[parent[a]]
                while b != parent[b]:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                    merged.append(b)
                elif b < a:
                    parent[a] = b
                    merged.append(a)
        # roots take the ids in runs between merged slots; a merged slot's
        # parent is a smaller slot, so its id is final when it is reached
        merged.sort()
        ids, kept = [0], bytearray(b"\1") * n
        for m, s in enumerate(merged):
            if s > len(ids):
                ids += base[len(ids) - m : s - m]
            ids.append(ids[parent[s]])
            kept[s - 1] = 0
        ids += base[len(ids) - len(merged) : n + 1 - len(merged)]
        card[obj], roots[obj] = n - len(merged), kept if merged else None
        firsts = list(map((1).__add__, starts))
        legs_by_obj.append(list(map(ids.__getitem__, map(slice, firsts, firsts[1:]))))
        if schema.incoming(obj):  # lookup k sends part p to ids[starts[k] + p]
            pieces = map(ids.__getitem__, map(slice, starts, firsts[1:]))
            lookups[obj] = list(map(attrgetter("__getitem__"), pieces))
    columns: dict[str, list[int]] = {}
    summand_columns = [x.column for x in summands]
    for gen in schema.generators:
        mask = roots[gen.dom]
        pushed = chain.from_iterable(map(map, lookups[gen.cod], map(itemgetter(gen.name), summand_columns)))
        # the inputs are natural, so a merged slot's image is its root's
        columns[gen.name] = list(pushed if mask is None else compress(pushed, mask))
    # zipped with the summands too, so that a schema with no objects gives a leg each
    legs = [dict(zip(schema.objects, comps)) for comps in zip(*legs_by_obj, summands)]
    return _trusted(schema, card, columns), legs


def pushout(f: Transformation, g: Transformation) -> PushoutResult:
    """Pushout of B <-f- A -g-> C, componentwise over each object.

    The apex quotients C + B by f(a) ~ g(a); apex parts are numbered
    densely by the smallest member of their class, C's parts first. So
    when f is monic, no two parts of C meet: C's parts keep their ids,
    and B's unglued parts are appended in order by `f.append_program`.
    """
    if f.dom != g.dom:
        raise ValueError("pushout requires a shared domain")
    if is_natural(f) or is_natural(g):
        raise ValueError("pushout legs must be natural")
    return _pushout(f, g)


def _pushout(f: Transformation, g: Transformation) -> PushoutResult:
    """`pushout` of natural maps with a shared domain, unchecked; along a monic f, `f.append_program`, no quotient."""
    if f.append_program is None:
        apex, (comp_c, comp_b) = _quotient([g.cod, f.cod], [(1, 0, f.comp, g.comp)])
        return PushoutResult(apex, _adopt(f.cod, apex, comp_b), _adopt(g.cod, apex, comp_c), f, g)
    (where, entries), c = f.append_program, g.cod
    card, ids, leg_c = {}, {}, {}
    for obj, at in where.items():
        n, card[obj] = c.card[obj], c.card[obj] + len(at) - len(g.comp[obj])
        naturals = _naturals(card[obj])
        ids[obj], leg_c[obj] = g.comp[obj] + naturals[n + 1 : card[obj] + 1], naturals[1 : n + 1]
    columns = {gen.name: c.column[gen.name] + list(map(ids[gen.cod].__getitem__, at)) for gen, at in entries.items()}
    handed = {  # C's preimage lists, joined by the appended parts
        name: _patched(lists, card[gen.cod], {}, {}, dict(enumerate(columns[name][c.card[gen.dom] :], c.card[gen.dom] + 1)))
        for name, lists in {**c.index.handed, **c.index}.items() for gen in [c.schema.generator(name)]
    }
    apex = _trusted(c.schema, card, columns)
    apex.__dict__["index"] = _PreimageIndex(apex, handed)
    leg_b = {obj: list(map(ids[obj].__getitem__, at)) for obj, at in where.items()}
    return PushoutResult(apex, _adopt(f.cod, apex, leg_b), _adopt(c, apex, leg_c), f, g)


def _append_program(f: Transformation) -> tuple[dict, dict] | None:
    """`_pushout(f, -)` compiled for a monic f, else None: the apex is C, then B∖f(A) in order.

    A table of ids per object holds g's image of each A-part, then the
    appended parts; the program indexes it per B-part and appended entry.
    """
    if not f.is_monic():
        return None
    b, where, created = f.cod, {}, {}
    for obj, col in f.comp.items():
        order = col + sorted(set(b.parts(obj)).difference(col))
        where[obj] = sorted(range(len(order)), key=order.__getitem__)  # B-part p at where[obj][p - 1]
        created[obj] = order[len(col) :]
    gens = b.schema.generators
    return where, {gen: [where[gen.cod][b.column[gen.name][p - 1] - 1] for p in created[gen.dom]] for gen in gens}


def coproduct(instances: list[CSetInstance]) -> tuple[CSetInstance, list[Transformation]]:
    """Disjoint union with injections; parts stack in argument order."""
    if not instances:
        raise ValueError("coproduct of no instances needs an explicit schema")
    apex, comps = _quotient(instances, [])
    return apex, [_adopt(x, apex, comp) for x, comp in zip(instances, comps)]


@dataclass
class Diagram:
    """A finite shape graph labelled with instances and transformations."""

    nodes: list[tuple[str, CSetInstance]]
    arrows: list[tuple[str, str, Transformation]]

    def __post_init__(self):
        labels = dict(self.nodes)
        if len(labels) != len(self.nodes):
            raise ValueError("diagram node ids must be unique")
        for src, tgt, t in self.arrows:
            if src not in labels or tgt not in labels:
                raise ValueError(f"arrow {src!r} -> {tgt!r} references an unknown node")
            if t.dom != labels[src] or t.cod != labels[tgt]:
                raise ValueError(f"arrow {src!r} -> {tgt!r} label has wrong endpoints")
            if is_natural(t):
                raise ValueError(f"arrow {src!r} -> {tgt!r} label is not natural")


def diagram_colimit(d: Diagram) -> tuple[CSetInstance, dict[str, Transformation]]:
    """Colimit apex plus one cocone leg per node.

    The node labels stack in declaration order and every arrow glues each
    part of its source to the part's image in its target.
    """
    if not d.nodes:
        raise ValueError("diagram colimit needs at least one node")
    position = {node_id: i for i, (node_id, _) in enumerate(d.nodes)}
    glue = [(position[src], position[tgt], None, t.comp) for src, tgt, t in d.arrows]
    apex, comps = _quotient([x for _, x in d.nodes], glue)
    return apex, {node_id: _adopt(x, apex, comp) for (node_id, x), comp in zip(d.nodes, comps)}


@dataclass
class PullbackResult:
    apex: CSetInstance
    p1: Transformation
    p2: Transformation
    f: Transformation
    g: Transformation

    def universal(self, u: Transformation, v: Transformation) -> Transformation:
        """Mediating map into the apex for a commuting cone (u, v)."""
        if u.dom != v.dom:
            raise ValueError("cone legs must share their domain")
        if u.compose(self.f) != v.compose(self.g):
            raise ValueError("cone does not commute with the defining cospan")
        comp = {}
        for obj in self.apex.schema.objects:
            pair_id = {pair: i for i, pair in enumerate(zip(self.p1.comp[obj], self.p2.comp[obj]), 1)}
            comp[obj] = list(map(pair_id.__getitem__, zip(u.comp[obj], v.comp[obj])))
        return _adopt(u.dom, self.apex, comp)


def pullback(f: Transformation, g: Transformation) -> PullbackResult:
    """Pullback of B -f-> D <-g- C: agreeing pairs, ordered lexicographically.

    A hash join: C's parts are bucketed by image, in ascending order, and
    B's parts are walked in order, each paired with its image's bucket.
    """
    if f.cod != g.cod:
        raise ValueError("pullback requires a shared codomain")
    if is_natural(f) or is_natural(g):
        raise ValueError("pullback legs must be natural")
    b, c = f.dom, g.dom
    schema = b.schema
    pairs: dict[str, list[tuple[int, int]]] = {}
    pair_id: dict[str, dict[tuple[int, int], int]] = {}
    for obj in schema.objects:
        buckets: dict[int, list[int]] = {}
        for pc, image in enumerate(g.comp[obj], start=1):
            buckets.setdefault(image, []).append(pc)
        pairs[obj] = [
            (pb, pc)
            for pb, image in enumerate(f.comp[obj], start=1)
            for pc in buckets.get(image, ())
        ]
        pair_id[obj] = {pair: i + 1 for i, pair in enumerate(pairs[obj])}
    card = {obj: len(pairs[obj]) for obj in schema.objects}
    columns = {
        gen.name: [
            pair_id[gen.cod][(b.apply(gen.name, pb), c.apply(gen.name, pc))]
            for pb, pc in pairs[gen.dom]
        ]
        for gen in schema.generators
    }
    apex = _trusted(schema, card, columns)
    p1 = _adopt(apex, b, {obj: [pb for pb, _ in pairs[obj]] for obj in schema.objects})
    p2 = _adopt(apex, c, {obj: [pc for _, pc in pairs[obj]] for obj in schema.objects})
    return PullbackResult(apex, p1, p2, f, g)


@dataclass(frozen=True)
class IdentificationViolation:
    object: str
    part_a: int
    part_b: int

    def __str__(self):
        return (
            f"parts {self.part_a} and {self.part_b} of {self.object!r} are merged "
            f"but not both preserved"
        )


@dataclass(frozen=True)
class DanglingViolation:
    generator: str
    part: int

    def __str__(self):
        return f"surviving part {self.part} references a deleted part via {self.generator!r}"


def _complement(f: Transformation, g: Transformation) -> tuple[list, tuple | None]:
    """The violated conditions for A -f-> B -g-> C and C's restriction.

    Identification is checked by a walk of B. The parts of C that B
    deletes then go to `_restrict_removing`, whose reads of C's preimage
    lists find the dangling entries; the restriction is built only when
    there are none.
    """
    if f.cod != g.dom:
        raise ValueError("check requires composable transformations")
    if not f.is_monic():
        raise NotMonicError("pushout complements need a monic first leg")
    schema = f.dom.schema
    b, c = f.cod, g.cod
    out: list = []
    deleted: dict[str, set[int]] = {}
    for obj in schema.objects:
        preserved = f.image(obj)
        deleted[obj] = set()
        seen: dict[int, int] = {}
        for part in b.parts(obj):
            image = g.comp[obj][part - 1]
            if part not in preserved:
                deleted[obj].add(image)
            if image in seen:
                first = seen[image]
                if not (first in preserved and part in preserved):
                    out.append(IdentificationViolation(obj, first, part))
            else:
                seen[image] = part
    dangling: list[tuple[str, int]] = []
    restriction = _restrict_removing(c, deleted, dangling)
    out += [DanglingViolation(gen, part) for gen, part in dangling]
    return out, restriction


def check_pushout_complement(f: Transformation, g: Transformation) -> list:
    """Identification and dangling conditions for A -f-> B -g-> C.

    Identification: parts of B merged by g must come from f's image.
    Dangling: a part of C whose image under some column is slated for
    deletion must itself be slated for deletion.
    """
    return _complement(f, g)[0]


def pushout_complement(
    f: Transformation, g: Transformation
) -> tuple[Transformation, Transformation]:
    """Unique D with A -> D -> C completing the square as a pushout.

    D is C minus the non-preserved image of B, numbered by `restrict`;
    the returned maps are A -> D and the (monic) inclusion D -> C. Raises
    ComplementViolationsError with the check's violations otherwise.
    """
    violations, restriction = _complement(f, g)
    if violations:
        raise ComplementViolationsError(violations)
    _, d_to_c, moved = restriction
    return _into_restriction(f.compose(g), d_to_c, moved), d_to_c


def _into_restriction(
    f: Transformation, incl: Transformation, moved: dict[str, dict[int, int]]
) -> Transformation:
    """`factor_through(f, incl)` for an inclusion `_restrict_removing` built.

    Reads only f: kept parts keep their ids unless `moved` renumbers
    them. f must land in the kept parts.
    """
    comp = {obj: [moved[obj].get(v, v) for v in col] for obj, col in f.comp.items()}
    return _adopt(f.dom, incl.dom, comp)


class Classifier:
    """Partial map classifier T(X) for an instance on an acyclic schema.

    A part of T(X) at c is a partial map from the representable at c
    into X. Defined at c's identity, it is a part of X(c) under its own
    id, so the unit η is the inclusion. Otherwise it is the tuple (t_g)
    of its restrictions along the generators g out of c: T(X)-parts that
    agree on every equation out of c, each side read as one composed
    column of T, which exists since T(X) is built sinks first. X's parts
    come first, then the tuples in ascending order; the column for g
    sends a tuple to t_g.
    """

    def __init__(self, x: CSetInstance):
        schema = x.schema
        if not is_acyclic(schema):
            raise CyclicSchemaError("the partial map classifier requires an acyclic schema")
        self.x, self.schema = x, schema
        self._tuples: dict[str, list[tuple[int, ...]]] = {}  # per object, after X's parts
        self._index: dict[str, dict[tuple[int, ...], int]] = {}  # per object, tuple -> T-part
        self._bottom: dict[str, int] = {}  # per object, ⊥: the map defined nowhere
        card: dict[str, int] = {}
        columns: dict[str, list[int]] = {}
        built, shifted = CSetInstance(schema, card, columns), {}  # T(X) so far: partial, not `_trusted`
        for c in reversed(schema.sources_first):
            gens, n = schema.outgoing(c), x.card[c]
            self._tuples[c] = tuples = self._agreeing(c, gens, built, shifted)
            self._index[c] = dict(zip(tuples, range(n + 1, n + 1 + len(tuples))))
            self._bottom[c] = self._index[c][tuple(self._bottom[gen.cod] for gen in gens)]
            card[c] = n + len(tuples)
            for i, gen in enumerate(gens):
                columns[gen.name] = x.column[gen.name] + list(map(itemgetter(i), tuples))
        columns = {gen.name: columns[gen.name] for gen in schema.generators}
        self.instance = _trusted(schema, {c: card[c] for c in schema.objects}, columns)
        self.eta = _adopt(x, self.instance, identity(x).comp)

    def __iter__(self):
        """Unpack as (instance, eta)."""
        return iter((self.instance, self.eta))

    def _agreeing(self, c: str, gens: list, built: CSetInstance, shifted: dict) -> list[tuple[int, ...]]:
        """The tuples (t_g) over the generators out of c that agree on c's equations, ascending.

        `built` is T(X) so far. `_evaluate` composes each equation side
        after its first generator as one column of it.
        """
        pos = {gen.name: i for i, gen in enumerate(gens)}

        def rest(i: int, path: tuple[str, ...]) -> list[int]:
            return _evaluate(built, SchemaPath(gens[i].cod, path), shifted)

        # each equation out of c as ((j, q), (i, p)) with j <= i: its sides
        # start with generators j and i and go on along q and p
        sides = [
            sorted((pos[side.components[0]], side.components[1:]) for side in eq)
            for eq in self.schema.equations
            if eq[0].source == c and eq[0].components and eq[1].components
        ]
        found: list[tuple[int, ...]] = [()]
        for i, gen in enumerate(gens):
            parts = range(1, built.card[gen.cod] + 1)
            # (p, j, q) as columns: p over g's codomain, q over generator j's
            checks = [(rest(i, p), j, rest(j, q)) for (j, q), (k, p) in sides if k == i]
            # candidates come from the first equation tying g to an earlier generator
            tie = next(((p, j, q) for p, j, q in checks if j < i), None)
            if tie:
                checks.remove(tie)
                by_value: dict[int, list[int]] = {}
                for t, value in enumerate(tie[0], start=1):
                    by_value.setdefault(value, []).append(t)
            found = [
                prefix + (t,)
                for prefix in found
                for t in (by_value.get(tie[2][prefix[tie[1]] - 1], ()) if tie else parts)
                if all(p[t - 1] == q[(prefix[j] if j < i else t) - 1] for p, j, q in checks)
            ]
        return found

    def classify_partial(self, sub: Transformation, f: Transformation) -> Transformation:
        """Total map A -> T(X) classifying the partial map (sub: A' -> A, f: A' -> X)."""
        if not sub.is_monic():
            raise NotMonicError("the domain of a partial map must include monically")
        if sub.dom != f.dom:
            raise ValueError("partial map legs must share their domain")
        if f.cod != self.x:
            raise ValueError("the partial map must land in the classified instance")
        a, objects = sub.cod, self.schema.objects
        known = {d: dict(zip(sub.comp[d], f.comp[d])) for d in objects}
        self._classify(a, known, {c: a.parts(c) for c in objects})
        return _adopt(a, self.instance, {c: list(map(known[c].__getitem__, a.parts(c))) for c in objects})

    def _classify(self, a: CSetInstance, known: dict[str, dict[int, int]], parts: dict) -> None:
        """Add the T-part classifying each of `parts` of A to `known`, sinks first.

        `known` holds per object {A-part: T-part}. It starts as the partial
        map A -> X, since X's parts are T's. A part undefined at c is the
        tuple of its images' classes, which are settled before c is
        reached. An image neither known nor among `parts` classifies as ⊥,
        so `parts` must hold every part that some path takes into the
        partial map's domain.
        """
        for c in reversed(self.schema.sources_first):
            gens, index, done = self.schema.outgoing(c), self._index[c], known[c]
            images = [(a.column[g.name], known[g.cod], self._bottom[g.cod]) for g in gens]
            for p in parts[c]:
                if p not in done:
                    done[p] = index[tuple([seen.get(col[p - 1], bottom) for col, seen, bottom in images])]


def partial_map_classifier(x: CSetInstance) -> Classifier:
    """Classifier with `.instance` T(X) and unit `.eta`: X -> T(X).

    Built on first use and kept on x, like its preimage index.
    """
    return x.classifier


def classifier_map(tdom: Classifier, tcod: Classifier, f: Transformation) -> Transformation:
    """Functorial action T(f): T(X) -> T(Y) postcomposing partial maps with f.

    Parts of X go through f; a tuple goes entry by entry, sinks first.
    """
    if f.dom != tdom.x or f.cod != tcod.x:
        raise ValueError("classifier_map needs T(f.dom) and T(f.cod)")
    schema = tdom.schema
    comp: dict[str, list[int]] = {}
    for c in reversed(schema.sources_first):
        gens, index = schema.outgoing(c), tcod._index[c]
        comp[c] = f.comp[c] + [
            index[tuple(comp[gen.cod][t - 1] for gen, t in zip(gens, entries))]
            for entries in tdom._tuples[c]
        ]
    return _adopt(tdom.instance, tcod.instance, {c: comp[c] for c in schema.objects})


def final_pullback_complement(
    l: Transformation, match: Transformation
) -> tuple[Transformation, Transformation]:
    """Final pullback complement of I -l-> L -match-> G (match monic).

    K is the pullback of the match's classifying map χ: G -> T(L) against
    T(l): the pairs (G-part, T(I)-part) over one T(L)-part. Only the parts
    of G from which some path reaches the match classify as more than ⊥,
    whose one preimage is T(I)'s ⊥, so χ is evaluated on that
    neighbourhood alone. K is numbered as DPO and SPO number theirs:
    `restrict` drops the near parts over nothing (only such parts lie
    above them), each kept part's first copy, over its smallest T(I)-part,
    keeps the id `restrict` gives it, and the other copies are appended in
    (G-part, T(I)-part) order. Only the near parts' entries are patched.
    Returns (I -> K, K -> G); raises ValueError unless l and the match are
    natural.
    """
    if l.cod != match.dom:
        raise ValueError("the match must start where the rule leg ends")
    if not match.is_monic():
        raise NotMonicError("final pullback complements require a monic match")
    if is_natural(l) or is_natural(match):
        raise ValueError("final pullback complements need a natural rule leg and match")
    return _final_pullback_complement(l, match)


def _final_pullback_complement(l: Transformation, match: Transformation) -> tuple[Transformation, Transformation]:
    """`final_pullback_complement` of a natural l and a natural monic match from l.cod, unchecked."""
    t_l, t_i = partial_map_classifier(l.cod), partial_map_classifier(l.dom)
    g = match.cod
    schema = g.schema
    near = deletion_closure(g, {d: set(match.comp[d]) for d in schema.objects})
    over = l.classifier_fibres
    known = {d: {v: p for p, v in enumerate(match.comp[d], start=1)} for d in schema.objects}
    t_l._classify(g, known, near)
    # (G-part, its T(I)-parts) near the match
    fibres = {c: [(h, over[c].get(known[c][h], [])) for h in sorted(near[c])] for c in schema.objects}
    sub, incl, moved = _restrict_removing(g, {c: {h for h, ts in fibres[c] if not ts} for c in schema.objects})
    card, k_to_g = sub.card, incl.comp
    pair_id: dict[str, dict[tuple[int, int], int]] = {}  # K-part of each near (G-part, T(I)-part)
    for c in schema.objects:
        ids = pair_id[c] = {}
        for h, ts in fibres[c]:
            if ts:
                ids[h, ts[0]] = moved[c].get(h, h)
                for t in ts[1:]:
                    card[c] += 1
                    ids[h, t] = card[c]
                    k_to_g[c].append(h)
    handed = {}
    for gen in schema.generators:
        col, t_col, out = g.column[gen.name], t_i.instance.column[gen.name], sub.column[gen.name]
        ids, cod_moved, dom_moved = pair_id[gen.cod], moved[gen.cod], moved[gen.dom]
        n, left = len(out), {}  # sub's lists that the patched entries leave
        for h, ts in fibres[gen.dom]:
            v = col[h - 1]
            # a far part is over ⊥ and keeps the id `restrict` gave it
            entries = [ids.get((v, t_col[t - 1])) or cod_moved.get(v, v) for t in ts]
            if entries:
                h = dom_moved.get(h, h)
                out[h - 1], left[h] = entries[0], cod_moved.get(v, v)
                out += entries[1:]
        if gen.name in sub.index.handed:  # entries that change move to their new lists; copies join theirs
            left = {h: t for h, t in left.items() if out[h - 1] != t}
            joined = {h: out[h - 1] for h in (*left, *range(n + 1, len(out) + 1))}
            handed[gen.name] = _patched(sub.index.handed[gen.name], card[gen.cod], {}, left, joined)
    k = _trusted(schema, card, sub.column)
    k.__dict__["index"] = _PreimageIndex(k, handed)
    # η is the inclusion, so I-part i is T(I)-part i
    i_to_k = {
        obj: [pair_id[obj][match.comp[obj][v - 1], i] for i, v in enumerate(l.comp[obj], start=1)]
        for obj in schema.objects
    }
    return _adopt(l.dom, k, i_to_k), _adopt(k, g, k_to_g)
