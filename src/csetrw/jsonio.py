"""JSON (de)serialization for schemas, instances, rules, cospans, diagrams.

All part ids are 1-based externally; arrays preserve declaration order.
Dumping is canonical so that parse/dump round trips are byte-exact.
Parsing checks every field's JSON type: names are strings, cardinalities
are integers and columns and components are lists of integers (booleans
and floats are refused), so an ill-typed document raises ParseError.
So does an instance over a schema that fails `validate_schema`; each
schema is validated once, where it is loaded or parsed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from .errors import ParseError, UnknownReferenceError
from .instance import CSetInstance, make_instance
from .open_systems import Diagram, StructuredCospan
from .rewrite import KINDS, Rule
from .schema import Generator, SchemaPath, SchemaPresentation, validate_schema
from .transform import Transformation

Resolver = Callable[[str], SchemaPresentation]


def dumps(obj: dict | list) -> str:
    return json.dumps(obj, indent=2) + "\n"


_TYPE_NAMES = {str: "a string", list: "a list", dict: "an object"}
_INT = frozenset({int})  # bool and float are distinct types, so they fail too


def _require(obj, key: str, kind: str, of: type | None = None):
    """Field `key` of a `kind` document, of JSON type `of` when given."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{kind} document is missing field {key!r}")
    if of is None:
        return obj[key]
    return _typed(obj[key], of, f"field {key!r} of a {kind} document")


def _typed(value, of: type, what: str):
    if not isinstance(value, of):
        raise ParseError(f"{what} must be {_TYPE_NAMES[of]}")
    return value


def _strings(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{what} must be a list of strings")
    return value


def _int_lists(value, what: str) -> dict[str, list[int]]:
    """An object of lists of integers, as given; bools and floats are refused."""
    _typed(value, dict, what)
    for key, col in value.items():
        if not isinstance(col, list) or not _INT.issuperset(map(type, col)):
            raise ParseError(f"{what} entry {key!r} must be a list of integers")
    return value


def path_to_obj(path: SchemaPath) -> dict:
    return {"source": path.source, "components": list(path.components)}


def parse_path(obj) -> SchemaPath:
    return SchemaPath(
        _require(obj, "source", "path", str),
        tuple(_strings(_require(obj, "components", "path"), "path components")),
    )


def schema_to_obj(schema: SchemaPresentation) -> dict:
    return {
        "objects": list(schema.objects),
        "generators": [{"name": g.name, "dom": g.dom, "cod": g.cod} for g in schema.generators],
        "equations": [[path_to_obj(lhs), path_to_obj(rhs)] for lhs, rhs in schema.equations],
    }


def parse_schema(obj) -> SchemaPresentation:
    objects = _strings(_require(obj, "objects", "schema"), "schema objects")
    generators = [
        Generator(*(_require(g, key, "generator", str) for key in ("name", "dom", "cod")))
        for g in _require(obj, "generators", "schema", list)
    ]
    equations = []
    for pair in _typed(obj.get("equations", []), list, "schema equations"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("a schema equation must be a list of two paths")
        equations.append((parse_path(pair[0]), parse_path(pair[1])))
    return SchemaPresentation(list(objects), generators, equations)


def _refuse_ill_formed(what: str, violations: list[str]) -> None:
    """An instance cannot be read over a schema that violates its invariants."""
    if violations:
        raise ParseError(f"{what} is ill-formed: {'; '.join(violations)}")


def instance_to_obj(x: CSetInstance, schema_ref: str | None = None) -> dict:
    return {
        "schema": schema_ref if schema_ref is not None else schema_to_obj(x.schema),
        "card": {obj: x.card[obj] for obj in x.schema.objects},
        "columns": {g.name: list(x.column[g.name]) for g in x.schema.generators},
    }


def parse_instance(obj, resolver: Resolver | None = None) -> CSetInstance:
    ref = _require(obj, "schema", "instance")
    if isinstance(ref, str):
        if resolver is None:
            raise UnknownReferenceError(ref)
        schema = resolver(ref)
    else:
        schema = parse_schema(ref)
        _refuse_ill_formed("an inline schema", validate_schema(schema))
    card = _require(obj, "card", "instance", dict)
    if not _INT.issuperset(map(type, card.values())):
        raise ParseError("instance cardinalities must be integers")
    columns = _int_lists(_require(obj, "columns", "instance"), "instance columns")
    return make_instance(schema, card, columns)


def transformation_to_obj(t: Transformation) -> dict:
    return {"comp": {obj: list(t.comp[obj]) for obj in t.dom.schema.objects}}


def parse_transformation(obj, dom: CSetInstance, cod: CSetInstance) -> Transformation:
    comp = _int_lists(_require(obj, "comp", "transformation"), "transformation components")
    unknown = sorted(set(comp) - set(dom.schema.objects))
    if unknown:
        raise ParseError(f"transformation names unknown object {unknown[0]!r}")
    return Transformation(dom, cod, comp)


def rule_to_obj(rule: Rule, schema_ref: str | None = None) -> dict:
    return {
        "kind": rule.kind,
        "L": instance_to_obj(rule.lhs, schema_ref),
        "I": instance_to_obj(rule.interface, schema_ref),
        "R": instance_to_obj(rule.rhs, schema_ref),
        "l": transformation_to_obj(rule.l),
        "r": transformation_to_obj(rule.r),
    }


def parse_rule(obj, resolver: Resolver | None = None) -> Rule:
    kind = _require(obj, "kind", "rule")
    if kind not in KINDS:
        raise ParseError(f"unknown rule kind {kind!r}")
    lhs = parse_instance(_require(obj, "L", "rule"), resolver)
    interface = parse_instance(_require(obj, "I", "rule"), resolver)
    rhs = parse_instance(_require(obj, "R", "rule"), resolver)
    l = parse_transformation(_require(obj, "l", "rule"), interface, lhs)
    r = parse_transformation(_require(obj, "r", "rule"), interface, rhs)
    return Rule(l, r, kind=kind)


def cospan_to_obj(c: StructuredCospan, schema_ref: str | None = None) -> dict:
    return {
        "apex": instance_to_obj(c.apex, schema_ref),
        "feet": [instance_to_obj(c.foot_in, schema_ref), instance_to_obj(c.foot_out, schema_ref)],
        "legs": [transformation_to_obj(c.in_leg), transformation_to_obj(c.out_leg)],
    }


def parse_cospan(obj, resolver: Resolver | None = None) -> StructuredCospan:
    apex = parse_instance(_require(obj, "apex", "cospan"), resolver)
    feet = [parse_instance(f, resolver) for f in _require(obj, "feet", "cospan", list)]
    legs = _require(obj, "legs", "cospan", list)
    if len(feet) != 2 or len(legs) != 2:
        raise ParseError("cospan documents carry exactly two feet and two legs")
    return StructuredCospan(
        parse_transformation(legs[0], feet[0], apex),
        parse_transformation(legs[1], feet[1], apex),
    )


def diagram_to_obj(d: Diagram, schema_ref: str | None = None) -> dict:
    return {
        "nodes": [
            {"id": node_id, "instance": instance_to_obj(inst, schema_ref)}
            for node_id, inst in d.nodes
        ],
        "arrows": [
            {"src": src, "tgt": tgt, "map": transformation_to_obj(t)}
            for src, tgt, t in d.arrows
        ],
    }


def parse_diagram(obj, resolver: Resolver | None = None) -> Diagram:
    nodes = [
        (_require(n, "id", "diagram node", str), parse_instance(_require(n, "instance", "diagram node"), resolver))
        for n in _require(obj, "nodes", "diagram", list)
    ]
    labels = dict(nodes)
    arrows = []
    for a in _typed(obj.get("arrows", []), list, "diagram arrows"):
        src = _require(a, "src", "diagram arrow", str)
        tgt = _require(a, "tgt", "diagram arrow", str)
        if src not in labels or tgt not in labels:
            raise ParseError(f"diagram arrow references unknown node {src!r} or {tgt!r}")
        arrows.append((src, tgt, parse_transformation(_require(a, "map", "diagram arrow"), labels[src], labels[tgt])))
    return Diagram(nodes, arrows)


def detect_kind(obj) -> str:
    """Classify a parsed JSON document by its top-level fields."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object at the top level")
    if "objects" in obj and "generators" in obj:
        return "schema"
    if "kind" in obj and "L" in obj:
        return "rule"
    if "apex" in obj and "feet" in obj:
        return "cospan"
    if "nodes" in obj:
        return "diagram"
    if "card" in obj:
        return "instance"
    if "comp" in obj:
        return "transformation"
    raise ParseError("document does not match any known format")


class Workspace:
    """Named documents loaded from files; names are file stems."""

    def __init__(self):
        self.schemas: dict[str, SchemaPresentation] = {}
        self.schema_violations: dict[str, list[str]] = {}  # found once, at load or resolve

    def resolve(self, name: str) -> SchemaPresentation:
        """The schema registered as `name`, validated once even if stored
        without `load`; ParseError if it is ill-formed."""
        if name not in self.schemas:
            raise UnknownReferenceError(name)
        if name not in self.schema_violations:
            self.schema_violations[name] = validate_schema(self.schemas[name])
        _refuse_ill_formed(f"schema {name!r}", self.schema_violations[name])
        return self.schemas[name]

    def load(self, path: str | Path) -> tuple[str, str, object]:
        """Parse one file; returns (name, kind, raw JSON object).

        Schemas are registered and validated immediately so later files
        can reference them by name; other payloads stay raw until
        interpreted, because instance parsing may need schemas from files
        not yet seen.
        """
        path = Path(path)
        try:
            obj = json.loads(path.read_text())
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter on deep nesting
            raise ParseError(f"{path}: {exc}") from exc
        kind = detect_kind(obj)
        name = path.stem
        if kind == "schema":
            self.schemas[name] = parse_schema(obj)
            self.schema_violations[name] = validate_schema(self.schemas[name])
        return name, kind, obj
