"""Slice-category rewriting, structured cospans, and diagram colimits.

Slices constrain instances by a typing morphism into a fixed base
instance; structured cospans expose discrete boundaries for gluing open
systems. Diagrams of instances and their colimits are defined in
`colimits` and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colimits import Diagram, _pushout, cocone_induced, diagram_colimit
from .errors import (
    CommutativityFailureError,
    ComplementViolationsError,
    FootMismatchError,
    TypingMismatchError,
)
from .instance import CSetInstance, make_instance
from .rewrite import RewriteOutcome, Rule, rewrite, rewrite_dpo
from .schema import Generator, SchemaPath, SchemaPresentation
from .transform import Transformation, factor_through, identity, is_natural


# ---------------------------------------------------------------------------
# Slices


@dataclass
class SliceInstance:
    """An instance together with its typing into a fixed base instance."""

    typing: Transformation

    def __post_init__(self):
        if is_natural(self.typing):
            raise TypingMismatchError("slice typing must be natural")

    @property
    def total(self) -> CSetInstance:
        return self.typing.dom

    @property
    def base(self) -> CSetInstance:
        return self.typing.cod


def _element_names(x: CSetInstance) -> tuple[dict, dict]:
    """Names for the objects/generators of the category of elements of x."""
    sep = ""
    plain_objs = {(obj, p): f"{obj}{p}" for obj in x.schema.objects for p in x.parts(obj)}
    plain_gens = {
        (g.name, p): f"{g.name}{p}" for g in x.schema.generators for p in x.parts(g.dom)
    }
    names = list(plain_objs.values()) + list(plain_gens.values())
    if len(set(names)) != len(names):
        sep = "#"
        plain_objs = {k: f"{k[0]}{sep}{k[1]}" for k in plain_objs}
        plain_gens = {k: f"{k[0]}{sep}{k[1]}" for k in plain_gens}
    return plain_objs, plain_gens


def slice_schema(x: CSetInstance) -> SchemaPresentation:
    """Category of elements of x presented as a schema.

    One object per part of x, one generator per (generator, part) pair,
    with the base equations instantiated at every part.
    """
    obj_names, gen_names = _element_names(x)
    objects = [obj_names[(obj, p)] for obj in x.schema.objects for p in x.parts(obj)]
    generators = []
    for g in x.schema.generators:
        for p in x.parts(g.dom):
            generators.append(
                Generator(
                    gen_names[(g.name, p)],
                    obj_names[(g.dom, p)],
                    obj_names[(g.cod, x.apply(g.name, p))],
                )
            )

    def instantiate(path: SchemaPath, part: int) -> SchemaPath:
        comps = []
        cur = part
        for name in path.components:
            comps.append(gen_names[(name, cur)])
            cur = x.apply(name, cur)
        return SchemaPath(obj_names[(path.source, part)], tuple(comps))

    equations = []
    for lhs, rhs in x.schema.equations:
        for part in x.parts(lhs.source):
            equations.append((instantiate(lhs, part), instantiate(rhs, part)))
    return SchemaPresentation(objects, generators, equations)


@dataclass
class MigratedSlice:
    instance: CSetInstance
    schema: SchemaPresentation
    fibers: dict[tuple[str, int], list[int]]


def slice_to_cset(s: SliceInstance) -> MigratedSlice:
    """Migrate a slice to an instance on the category-of-elements schema."""
    base = s.base
    schema = slice_schema(base)
    obj_names, gen_names = _element_names(base)
    fibers: dict[tuple[str, int], list[int]] = {
        (obj, p): [] for obj in base.schema.objects for p in base.parts(obj)
    }
    for obj in base.schema.objects:
        for part in s.total.parts(obj):
            fibers[(obj, s.typing.comp[obj][part - 1])].append(part)
    local = {key: {p: i + 1 for i, p in enumerate(parts)} for key, parts in fibers.items()}
    card = {obj_names[key]: len(parts) for key, parts in fibers.items()}
    columns: dict[str, list[int]] = {}
    for g in base.schema.generators:
        for p in base.parts(g.dom):
            q = base.apply(g.name, p)
            columns[gen_names[(g.name, p)]] = [
                local[(g.cod, q)][s.total.apply(g.name, t)] for t in fibers[(g.dom, p)]
            ]
    return MigratedSlice(make_instance(schema, card, columns), schema, fibers)


def cset_to_slice(inst: CSetInstance, base: CSetInstance) -> SliceInstance:
    """Inverse migration: rebuild the typed instance from element fibers."""
    schema = slice_schema(base)
    if inst.schema != schema:
        raise ValueError("instance does not live on the category of elements of the base")
    obj_names, gen_names = _element_names(base)
    offsets: dict[tuple[str, int], int] = {}
    typing: dict[str, list[int]] = {}
    for obj in base.schema.objects:  # each fibre is one run of parts, in order
        typing[obj] = []
        for p in base.parts(obj):
            offsets[(obj, p)] = len(typing[obj])
            typing[obj] += [p] * inst.card[obj_names[(obj, p)]]
    columns: dict[str, list[int]] = {g.name: [] for g in base.schema.generators}
    for g in base.schema.generators:
        for p in base.parts(g.dom):
            offset = offsets[(g.cod, base.apply(g.name, p))]
            columns[g.name] += map(offset.__add__, inst.column[gen_names[(g.name, p)]])
    total_inst = make_instance(base.schema, {obj: len(ps) for obj, ps in typing.items()}, columns)
    return SliceInstance(Transformation(total_inst, base, typing))


def migrate_transformation(
    f: Transformation, dom_mig: MigratedSlice, cod_mig: MigratedSlice,
    dom_slice: SliceInstance, cod_slice: SliceInstance,
) -> Transformation:
    """Transport a typing-preserving map to the migrated representation."""
    if f.compose(cod_slice.typing) != dom_slice.typing:
        raise TypingMismatchError("map does not commute with the slice typings")
    obj_names, _ = _element_names(dom_slice.base)
    cod_local = {
        key: {p: i + 1 for i, p in enumerate(parts)} for key, parts in cod_mig.fibers.items()
    }
    comp: dict[str, list[int]] = {}
    for obj in dom_slice.base.schema.objects:
        for p in dom_slice.base.parts(obj):
            comp[obj_names[(obj, p)]] = [
                cod_local[(obj, p)][f.comp[obj][t - 1]] for t in dom_mig.fibers[(obj, p)]
            ]
    return Transformation(dom_mig.instance, cod_mig.instance, comp)


def slice_rewrite(
    rule: Rule, match: Transformation, typings: dict[str, Transformation]
) -> tuple[SliceInstance, RewriteOutcome]:
    """`rewrite` with the rule's kind, performed over a fixed base instance.

    `typings` maps "L", "I", "R", "G" to the typing morphisms. The rule
    and match must commute with them. C-Set/X computes its (co)limits on
    the underlying C-sets, so the step is the C-set one: K is typed
    through `k_to_g` and the result by the universal property of the
    result pushout, out of R or, for SPO, out of `r_kept`.
    """
    t_l, t_i, t_r, t_g = (typings[k] for k in ("L", "I", "R", "G"))
    base = t_g.cod
    for t in (t_l, t_i, t_r):
        if t.cod != base:
            raise TypingMismatchError("all typings must target the same base instance")
    if rule.l.compose(t_l) != t_i or rule.r.compose(t_r) != t_i:
        raise TypingMismatchError("rule legs do not commute with the typings")
    if match.compose(t_g) != t_l:
        raise TypingMismatchError("match does not commute with the typings")
    outcome = rewrite(rule, match)
    maps = outcome.maps
    t_r = maps["r_kept"].compose(t_r) if "r_kept" in maps else t_r
    t_result = cocone_induced(maps["r_to_result"], maps["k_to_result"], t_r, maps["k_to_g"].compose(t_g))
    return SliceInstance(t_result), outcome


# ---------------------------------------------------------------------------
# Structured cospans


def interface_objects(schema: SchemaPresentation) -> list[str]:
    """Default interface: objects with no outgoing generators."""
    return [obj for obj in schema.objects if not schema.outgoing(obj)]


def is_discrete(x: CSetInstance) -> bool:
    """No parts at any object with outgoing generators."""
    return all(x.card[obj] == 0 for obj in x.schema.objects if x.schema.outgoing(obj))


def discrete_instance(schema: SchemaPresentation, card: dict[str, int]) -> CSetInstance:
    bad = [obj for obj, n in card.items() if n and schema.outgoing(obj)]
    if bad:
        raise ValueError(f"interface objects must have no outgoing generators: {bad}")
    return make_instance(schema, card, {})


@dataclass
class StructuredCospan:
    """An open system: discrete feet included into a common apex."""

    in_leg: Transformation
    out_leg: Transformation

    def __post_init__(self):
        if self.in_leg.cod != self.out_leg.cod:
            raise ValueError("cospan legs must share their apex")
        for leg in (self.in_leg, self.out_leg):
            if not is_discrete(leg.dom):
                raise ValueError("cospan feet must be discrete instances")
            if is_natural(leg):
                raise ValueError("cospan legs must be natural")

    @property
    def apex(self) -> CSetInstance:
        return self.in_leg.cod

    @property
    def foot_in(self) -> CSetInstance:
        return self.in_leg.dom

    @property
    def foot_out(self) -> CSetInstance:
        return self.out_leg.dom


def identity_cospan(foot: CSetInstance) -> StructuredCospan:
    return StructuredCospan(identity(foot), identity(foot))


def compose_cospans(a: StructuredCospan, b: StructuredCospan) -> StructuredCospan:
    """Glue two open systems along their shared foot by pushout."""
    if a.foot_out != b.foot_in:
        raise FootMismatchError("output foot of the first cospan must equal the input foot of the second")
    # a's apex stacks first, so it keeps its ids when b's input leg is monic; both legs were checked when built
    po = _pushout(b.in_leg, a.out_leg)
    return StructuredCospan(a.in_leg.compose(po.leg_c), b.out_leg.compose(po.leg_b))


@dataclass
class CospanMorphism:
    """Apex and foot maps between structured cospans, commuting with the legs."""

    dom: StructuredCospan
    cod: StructuredCospan
    apex_map: Transformation
    in_map: Transformation
    out_map: Transformation

    def __post_init__(self):
        if is_natural(self.apex_map):
            raise ValueError("cospan morphism apex map must be natural")
        if self.dom.in_leg.compose(self.apex_map) != self.in_map.compose(self.cod.in_leg):
            raise CommutativityFailureError("input foot square does not commute")
        if self.dom.out_leg.compose(self.apex_map) != self.out_map.compose(self.cod.out_leg):
            raise CommutativityFailureError("output foot square does not commute")


@dataclass
class OpenRule:
    l: CospanMorphism
    r: CospanMorphism

    def __post_init__(self):
        if self.l.dom != self.r.dom:
            raise ValueError("open rule legs must share their interface cospan")


@dataclass
class OpenRewriteOutcome:
    result: StructuredCospan
    k: StructuredCospan
    maps: dict[str, dict[str, Transformation]] = field(default_factory=dict)


def open_rewrite(rule: OpenRule, match: CospanMorphism) -> OpenRewriteOutcome:
    """DPO rewriting of structured cospans: `rewrite_dpo` at each level.

    The step runs on the input feet, the apexes and the output feet, and
    refusals are gathered as (level, violation) pairs. The feet of the
    intermediate and result cospans are connected to their apexes by
    induced maps, which must exist for the rewrite to be well formed.
    """
    if match.dom != rule.l.cod:
        raise ValueError("match must start at the rule's left-hand cospan")
    levels = {
        "in": (rule.l.in_map, match.in_map, rule.r.in_map),
        "apex": (rule.l.apex_map, match.apex_map, rule.r.apex_map),
        "out": (rule.l.out_map, match.out_map, rule.r.out_map),
    }
    steps = {}
    violations = []
    for level, (l_map, m_map, r_map) in levels.items():
        try:
            steps[level] = rewrite_dpo(Rule(l_map, r_map), m_map).maps
        except ComplementViolationsError as exc:
            violations.extend((level, v) for v in exc.violations)
    if violations:
        raise ComplementViolationsError(violations)
    apex = steps["apex"]

    def legs(level: str, g_leg: Transformation, rhs_leg: Transformation) -> tuple[Transformation, Transformation]:
        foot = steps[level]
        try:
            k_leg = factor_through(foot["k_to_g"].compose(g_leg), apex["k_to_g"])
        except ValueError as exc:
            raise CommutativityFailureError(
                f"a surviving {level} foot part has a deleted apex image: {exc}"
            ) from exc
        # the legs pushed into the apex form a cocone by construction, so it is not rechecked
        return k_leg, cocone_induced(
            foot["r_to_result"], foot["k_to_result"],
            rhs_leg.compose(apex["r_to_result"]), k_leg.compose(apex["k_to_result"]),
        )

    k_in, h_in = legs("in", match.cod.in_leg, rule.r.cod.in_leg)
    k_out, h_out = legs("out", match.cod.out_leg, rule.r.cod.out_leg)
    # each level's match is the caller's own `match` map, so only the step's built maps are returned
    maps = {level: {name: t for name, t in m.items() if name != "match"} for level, m in steps.items()}
    return OpenRewriteOutcome(StructuredCospan(h_in, h_out), StructuredCospan(k_in, k_out), maps)
