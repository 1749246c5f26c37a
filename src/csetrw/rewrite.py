"""DPO, SPO and SqPO rewriting of C-set instances.

A rule is a span L <-l- I -r-> R. DPO deletes exactly what the rule names and refuses
otherwise; SPO cascades deletions to every part with a path of columns into a deleted
part; SqPO copies context when l identifies parts, working only on the parts with a path
into the match. Both find those parts with `instance.deletion_closure`. Steps read the
host's preimage lists and hand them on to K and the result, so a chain builds them once.
A monic r (in SPO, `j_to_r`) pushes R out by its `append_program`, no quotient; a rule's
r builds that program once, SPO's `j_to_r` once per step. `Rule` checks its legs and a
step its match, once: what the step builds from them is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .colimits import _final_pullback_complement, _into_restriction, _pushout, pushout_complement
from .errors import ComplementViolationsError, MatchNotNaturalError, NotMonicError
from .instance import CSetInstance, _restrict_removing, deletion_closure
from .search import SearchOptions, homomorphisms
from .transform import Transformation, is_natural

DPO = "dpo"
SPO = "spo"
SQPO = "sqpo"
KINDS = (DPO, SPO, SQPO)


@dataclass
class Rule:
    l: Transformation
    r: Transformation
    kind: str = DPO

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown rewrite kind {self.kind!r}")
        if self.l.dom != self.r.dom:
            raise ValueError("rule legs must share their interface instance")
        if is_natural(self.l) or is_natural(self.r):
            raise ValueError("rule legs must be natural transformations")

    @property
    def lhs(self) -> CSetInstance:
        return self.l.cod

    @property
    def interface(self) -> CSetInstance:
        return self.l.dom

    @property
    def rhs(self) -> CSetInstance:
        return self.r.cod


@dataclass
class RewriteOutcome:
    result: CSetInstance
    k: CSetInstance
    maps: dict[str, Transformation] = field(default_factory=dict)


def _check_match(rule: Rule, match: Transformation) -> None:
    if match.dom != rule.lhs:
        raise ValueError("match must start at the rule's left-hand side")
    violations = is_natural(match)
    if violations:
        raise MatchNotNaturalError(f"match is not natural: {violations}")


def _push_out_rhs(
    rule: Rule, match: Transformation, i_to_k: Transformation, k_to_g: Transformation
) -> RewriteOutcome:
    """The second square of DPO and SqPO: push R out along I -> K.

    K's parts keep their ids when r is monic; `rule.r.append_program` appends the new parts.
    """
    po = _pushout(rule.r, i_to_k)
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


def rewrite_dpo(rule: Rule, match: Transformation) -> RewriteOutcome:
    """Double pushout step; refuses a non-monic left leg or Eq-level violations."""
    _check_match(rule, match)
    return _push_out_rhs(rule, match, *pushout_complement(rule.l, match))


def rewrite_spo(rule: Rule, match: Transformation) -> RewriteOutcome:
    """Single pushout step in the category of partial maps.

    Deletion always wins: parts of G referencing a deleted part die with
    it, and an interface part dies when the match or the right leg
    identifies it with anything dead, taking its image on both sides
    along. The surviving interface is then glued to the surviving piece
    of R by an ordinary pushout, so the step agrees with DPO whenever
    DPO's preconditions hold. The result legs are partial: `r_kept` and
    `k_to_g` name the domains of definition.
    """
    _check_match(rule, match)
    if not rule.l.is_monic():
        raise NotMonicError("SPO requires a monic left rule leg")
    g, l_match = match.cod, rule.l.compose(match)  # each I-part's host image
    schema = g.schema
    core = {
        obj: {match.comp[obj][p - 1] for p in set(rule.lhs.parts(obj)) - rule.l.image(obj)}
        for obj in schema.objects
    }
    groups: dict[tuple[str, int], set[int]] = {}  # host images of I-parts sharing an r-image
    for obj in schema.objects:
        for v, h in zip(rule.r.comp[obj], l_match.comp[obj]):
            groups.setdefault((obj, v), set()).add(h)
    dead_g = deletion_closure(g, core)
    # deadness spreads through identifications made by r
    while partly := [(o, hs) for (o, _), hs in groups.items() if 0 < len(hs & dead_g[o]) < len(hs)]:
        for o, hs in partly:
            dead_g[o] |= hs
        dead_g = deletion_closure(g, dead_g)
    dead_i = {
        obj: {i for i, h in enumerate(l_match.comp[obj], start=1) if h in dead_g[obj]}
        for obj in schema.objects
    }

    k, k_to_g, moved = _restrict_removing(g, dead_g)
    dead_r = deletion_closure(
        rule.rhs, {obj: {rule.r.comp[obj][i - 1] for i in dead_i[obj]} for obj in schema.objects}
    )
    _, r_kept, r_moved = _restrict_removing(rule.rhs, dead_r)
    _, j_to_i, _ = _restrict_removing(rule.interface, dead_i)
    j_to_r = _into_restriction(j_to_i.compose(rule.r), r_kept, r_moved)
    j_to_k = _into_restriction(j_to_i.compose(l_match), k_to_g, moved)
    po = _pushout(j_to_r, j_to_k)
    return RewriteOutcome(
        result=po.apex,
        k=k,
        maps={
            "match": match,
            "interface_to_i": j_to_i,
            "interface_to_k": j_to_k,
            "k_to_g": k_to_g,
            "r_kept": r_kept,
            "r_to_result": po.leg_b,
            "k_to_result": po.leg_c,
        },
    )


def rewrite_sqpo(rule: Rule, match: Transformation) -> RewriteOutcome:
    """Sesqui-pushout step: final pullback complement, then pushout.

    Supports deletion and creation in unknown context; non-monic left
    legs copy the context of identified parts. The match must be monic
    and the schema acyclic (the classifier is finite only then).
    """
    _check_match(rule, match)
    if not match.is_monic():
        raise NotMonicError("final pullback complements require a monic match")
    return _push_out_rhs(rule, match, *_final_pullback_complement(rule.l, match))


_ENGINES = {DPO: rewrite_dpo, SPO: rewrite_spo, SQPO: rewrite_sqpo}


def rewrite(rule: Rule, match: Transformation) -> RewriteOutcome:
    """Apply the rule at an explicit match using its declared semantics."""
    return _ENGINES[rule.kind](rule, match)


def find_and_rewrite(
    rule: Rule, g: CSetInstance, opts: SearchOptions | None = None
) -> list[RewriteOutcome]:
    """Enumerate matches and rewrite at each applicable one.

    Every outcome is computed from the original instance. A DPO match is
    skipped, not reported, when its pushout complement is refused for
    identification or dangling violations.
    """
    opts = opts or SearchOptions()
    if rule.kind == SQPO:
        opts = replace(opts, monic=True)
    outcomes = []
    for match in homomorphisms(rule.lhs, g, opts):
        try:
            outcomes.append(rewrite(rule, match))
        except ComplementViolationsError:
            continue
    return outcomes
