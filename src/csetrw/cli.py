"""Command line interface.

Subcommands: validate, homs, rewrite, compose, colimit, gen-mesh, bench.
Exit codes: 0 success, 1 violations or refusals, 2 parse or reference
errors and other bad input.
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path

from . import bench as bench_mod
from .errors import (
    CommutativityFailureError,
    ComplementViolationsError,
    CyclicSchemaError,
    FootMismatchError,
    InvalidInstanceError,
    MatchNotNaturalError,
    NotMonicError,
    ParseError,
    TypingMismatchError,
)
from .jsonio import (
    Workspace,
    cospan_to_obj,
    dumps,
    instance_to_obj,
    parse_cospan,
    parse_diagram,
    parse_instance,
    parse_rule,
    parse_transformation,
    transformation_to_obj,
)
from .mesh import gen_mesh
from .open_systems import compose_cospans, diagram_colimit
from .rewrite import DPO, KINDS, find_and_rewrite, rewrite
from .search import SearchOptions, homomorphisms

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2


def _load_workspace(args) -> Workspace:
    ws = Workspace()
    for path in getattr(args, "schema", None) or []:
        ws.load(path)
    return ws


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    ws = _load_workspace(args)
    status = EXIT_OK
    loaded = []
    for path in args.paths:
        loaded.append((path, *ws.load(path)[1:]))
    for path, kind, obj in loaded:
        if kind == "schema":
            violations = ws.schema_violations[Path(path).stem]
        elif kind == "instance":
            try:
                parse_instance(obj, ws.resolve)
                violations = []
            except InvalidInstanceError as exc:
                violations = exc.violations
        else:
            print(f"{path}: no validator for {kind} documents")
            continue
        if violations:
            status = EXIT_VIOLATIONS
            print(f"{path}: INVALID ({kind})")
            for v in violations:
                print(f"  {v}")
        else:
            print(f"{path}: OK ({kind})")
    return status


def cmd_homs(args) -> int:
    ws = _load_workspace(args)
    _, _, xobj = ws.load(args.pattern)
    _, _, yobj = ws.load(args.host)
    x = parse_instance(xobj, ws.resolve)
    y = parse_instance(yobj, ws.resolve)
    matches = homomorphisms(x, y, SearchOptions(monic=args.monic, limit=args.limit))
    if args.count:
        print(len(matches))
    else:
        _write(dumps([transformation_to_obj(m) for m in matches]), args.output)
    return EXIT_OK


def cmd_rewrite(args) -> int:
    ws = _load_workspace(args)
    _, rkind, robj = ws.load(args.rule)
    _, _, gobj = ws.load(args.host)
    if rkind != "rule":
        raise ParseError(f"{args.rule} is not a rule document")
    rule = parse_rule(robj, ws.resolve)
    if args.kind and args.kind != rule.kind:
        raise ParseError(f"rule has kind {rule.kind!r} but --kind {args.kind!r} was given")
    g = parse_instance(gobj, ws.resolve)
    if args.match:
        _, _, mobj = ws.load(args.match)
        match = parse_transformation(mobj, rule.lhs, g)
        outcomes = [rewrite(rule, match)]
    elif args.all:
        outcomes = find_and_rewrite(rule, g, SearchOptions(monic=args.monic))
    else:
        raise ParseError("pass --match FILE or --all")
    documents = []
    for outcome in outcomes:
        documents.append(
            {
                "result": instance_to_obj(outcome.result),
                "k": instance_to_obj(outcome.k),
                "maps": {name: transformation_to_obj(t) for name, t in outcome.maps.items()},
            }
        )
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(documents):
            (outdir / f"outcome_{i}.json").write_text(dumps(doc))
        print(f"wrote {len(documents)} outcome(s) to {outdir}")
    else:
        _write(dumps(documents), None)
    return EXIT_OK


def cmd_compose(args) -> int:
    ws = _load_workspace(args)
    _, _, aobj = ws.load(args.first)
    _, _, bobj = ws.load(args.second)
    composite = compose_cospans(parse_cospan(aobj, ws.resolve), parse_cospan(bobj, ws.resolve))
    _write(dumps(cospan_to_obj(composite)), args.output)
    return EXIT_OK


def cmd_colimit(args) -> int:
    ws = _load_workspace(args)
    _, _, dobj = ws.load(args.diagram)
    apex, legs = diagram_colimit(parse_diagram(dobj, ws.resolve))
    doc = {
        "apex": instance_to_obj(apex),
        "legs": {node_id: transformation_to_obj(t) for node_id, t in legs.items()},
    }
    _write(dumps(doc), args.output)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def cmd_gen_mesh(args) -> int:
    mesh = gen_mesh(args.rows, args.cols)
    ref = args.schema_ref
    _write(dumps(instance_to_obj(mesh, ref)), args.output)
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = bench_mod.run_bench(args.task, bench_mod.parse_sizes(args.sizes), args.kind)
    if args.json:
        _write(dumps({"python": platform.python_version(), "platform": platform.platform(), "rows": rows}), args.output)
    elif args.output:
        with open(args.output, "w", newline="") as fh:
            bench_mod.write_csv(rows, fh)
    else:
        bench_mod.write_csv(rows, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csetrw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate schema and instance files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--schema", action="append", help="extra schema file for name resolution")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homs", help="enumerate homomorphisms pattern -> host")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--schema", action="append")
    p.add_argument("--monic", action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--count", action="store_true", help="print only the number of matches")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("rewrite", help="apply a rewrite rule to an instance")
    p.add_argument("rule")
    p.add_argument("host")
    p.add_argument("--schema", action="append")
    p.add_argument("--match", help="transformation file; omit with --all to search")
    p.add_argument("--all", action="store_true", help="rewrite at every applicable match")
    p.add_argument("--monic", action="store_true", help="restrict searched matches to monos")
    p.add_argument("--kind", choices=KINDS, help="assert the rule's semantics")
    p.add_argument("-o", "--output-dir")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("compose", help="compose two structured cospans")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--schema", action="append")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("colimit", help="colimit of a diagram of instances")
    p.add_argument("diagram")
    p.add_argument("--schema", action="append")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_colimit)

    p = sub.add_parser("gen-mesh", help="generate a triangulated grid mesh")
    p.add_argument("rows", type=_positive_int)
    p.add_argument("cols", type=_positive_int)
    p.add_argument("--schema-ref", help="emit this schema name instead of inlining")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_mesh)

    p = sub.add_parser("bench", help="run the mesh benchmarks, emitting CSV or JSON")
    p.add_argument("--task", choices=bench_mod.TASKS, default="homsearch")
    p.add_argument("--kind", choices=KINDS, default=DPO, help="flip rule semantics for rewrite and step")
    p.add_argument("--sizes", default="", help='comma separated, e.g. "2x2,2x3"')
    p.add_argument("--json", action="store_true", help="print the rows as JSON, with the Python version and platform")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ComplementViolationsError as exc:
        print("rewrite refused:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        code = EXIT_VIOLATIONS
    except (
        InvalidInstanceError,
        FootMismatchError,
        NotMonicError,
        MatchNotNaturalError,
        CyclicSchemaError,
        TypingMismatchError,
        CommutativityFailureError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VIOLATIONS
    except (ValueError, IndexError, KeyError, OSError) as exc:  # ParseError, UnknownReferenceError among them
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
