from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from csetrw import cli, jsonio
from csetrw.cli import main
from csetrw.errors import (
    CommutativityFailureError,
    CyclicSchemaError,
    MatchNotNaturalError,
    NotMonicError,
    ParseError,
    PartOutOfRangeError,
    TypingMismatchError,
    UnknownReferenceError,
)
from csetrw.instance import make_instance
from csetrw.mesh import gen_mesh
from csetrw.rewrite import DPO, SQPO, Rule
from csetrw.schema import Generator, SchemaPresentation, graph_schema
from csetrw.transform import Transformation, identity

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def load(name: str):
    return json.loads((FIXTURES / name).read_text())


# ---------------------------------------------------------------------------
# Serialization


def test_every_fixture_roundtrips_bit_exactly():
    ws = jsonio.Workspace()
    ws.load(fixture("graph.json"))
    ws.load(fixture("d2.json"))
    dumpers = {
        "schema": lambda obj: jsonio.schema_to_obj(jsonio.parse_schema(obj)),
        "instance": lambda obj: jsonio.instance_to_obj(
            jsonio.parse_instance(obj, ws.resolve),
            obj["schema"] if isinstance(obj["schema"], str) else None,
        ),
        "rule": lambda obj: jsonio.rule_to_obj(
            jsonio.parse_rule(obj, ws.resolve),
            obj["L"]["schema"] if isinstance(obj["L"]["schema"], str) else None,
        ),
        "cospan": lambda obj: jsonio.cospan_to_obj(
            jsonio.parse_cospan(obj, ws.resolve),
            obj["apex"]["schema"] if isinstance(obj["apex"]["schema"], str) else None,
        ),
        "diagram": lambda obj: jsonio.diagram_to_obj(
            jsonio.parse_diagram(obj, ws.resolve),
            obj["nodes"][0]["instance"]["schema"]
            if obj["nodes"] and isinstance(obj["nodes"][0]["instance"]["schema"], str)
            else None,
        ),
    }
    checked = 0
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        obj = json.loads(text)
        kind = jsonio.detect_kind(obj)
        if kind == "transformation":
            mesh = gen_mesh(1, 2)
            from csetrw.mesh import quad_pattern

            parsed = jsonio.parse_transformation(obj, quad_pattern(), mesh)
            assert jsonio.dumps(jsonio.transformation_to_obj(parsed)) == text
        else:
            assert jsonio.dumps(dumpers[kind](obj)) == text
        checked += 1
    assert checked == 12


def test_inline_schema_roundtrip():
    mesh = gen_mesh(1, 1)
    obj = jsonio.instance_to_obj(mesh)
    parsed = jsonio.parse_instance(obj)
    assert parsed == mesh
    assert jsonio.instance_to_obj(parsed) == obj


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError):
        jsonio.parse_schema({"objects": ["V"]})
    with pytest.raises(ParseError):
        jsonio.detect_kind({"something": 1})
    with pytest.raises(ParseError):
        jsonio.parse_rule({"kind": "xpo", "L": {}, "I": {}, "R": {}, "l": {}, "r": {}})


def test_unknown_schema_reference():
    obj = {"schema": "nowhere", "card": {}, "columns": {}}
    with pytest.raises(UnknownReferenceError):
        jsonio.parse_instance(obj, jsonio.Workspace().resolve)


def test_schema_stored_without_load_is_validated_once(monkeypatch):
    ws = jsonio.Workspace()
    ws.schemas["s"] = jsonio.parse_schema(
        {"objects": ["E", "V"], "generators": [{"name": "src", "dom": "E", "cod": "W"}]}
    )
    obj = {"schema": "s", "card": {"E": 1, "V": 1}, "columns": {"src": [1]}}
    with pytest.raises(ParseError, match="ill-formed"):
        jsonio.parse_instance(obj, ws.resolve)
    assert ws.schema_violations["s"]
    monkeypatch.setattr(jsonio, "validate_schema", lambda schema: pytest.fail("validated twice"))
    with pytest.raises(ParseError, match="ill-formed"):
        jsonio.parse_instance(obj, ws.resolve)


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_ok(capsys):
    code = main(
        ["validate", fixture("small_graph.json"), "--schema", fixture("graph.json")]
    )
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_reports_equation_violation(tmp_path, capsys):
    bad = load("two_triangles.json")
    bad["columns"]["d1"] = [2, 2]  # break the corner equations of triangle 2
    path = tmp_path / "bad_mesh.json"
    path.write_text(jsonio.dumps(bad))
    code = main(["validate", str(path), "--schema", fixture("d2.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID" in out and "equation" in out


def test_cli_validate_reports_unknown_names(tmp_path, capsys):
    doc = load("small_graph.json")
    doc["card"]["X"] = 5
    doc["columns"]["loop"] = [1]
    path = tmp_path / "unknown_names.json"
    path.write_text(jsonio.dumps(doc))
    code = main(["validate", str(path), "--schema", fixture("graph.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID (instance)" in out
    assert "unknown name 'X'" in out and "unknown name 'loop'" in out


def test_cli_validate_unknown_reference(tmp_path, capsys):
    doc = {"schema": "missing", "card": {}, "columns": {}}
    path = tmp_path / "orphan.json"
    path.write_text(jsonio.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_cli_missing_input_file_exits_2(tmp_path, capsys):
    code = main(["validate", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "absent.json" in err


def test_cli_homs_count(capsys):
    code = main(
        [
            "homs",
            fixture("quad_pattern.json"),
            fixture("mesh_1x2.json"),
            "--schema",
            fixture("d2.json"),
            "--monic",
            "--count",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cli_homs_limit_and_output(tmp_path, capsys):
    out_file = tmp_path / "homs.json"
    code = main(
        [
            "homs",
            fixture("small_graph.json"),
            fixture("small_graph.json"),
            "--schema",
            fixture("graph.json"),
            "--limit",
            "1",
            "-o",
            str(out_file),
        ]
    )
    assert code == 0
    docs = json.loads(out_file.read_text())
    assert len(docs) == 1 and "comp" in docs[0]


def test_cli_rewrite_with_match(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(
        [
            "rewrite",
            fixture("flip_rule.json"),
            fixture("mesh_1x2.json"),
            "--schema",
            fixture("d2.json"),
            "--match",
            fixture("flip_match.json"),
            "-o",
            str(outdir),
        ]
    )
    assert code == 0
    doc = json.loads((outdir / "outcome_0.json").read_text())
    result = jsonio.parse_instance(doc["result"])
    assert result.card == {"V": 6, "E": 9, "T": 4}


def test_cli_rewrite_all_matches(capsys):
    code = main(
        [
            "rewrite",
            fixture("flip_rule.json"),
            fixture("mesh_1x2.json"),
            "--schema",
            fixture("d2.json"),
            "--all",
            "--monic",
        ]
    )
    assert code == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 4


def test_cli_rewrite_dangling_exit_code(tmp_path, capsys):
    # vertex-deleting rule matched against a vertex with incident edges
    g = graph_schema()
    lhs = make_instance(g, {"V": 1}, {})
    nothing = make_instance(g, {}, {})
    from csetrw.rewrite import DPO, Rule
    from csetrw.transform import Transformation

    rule = Rule(Transformation(nothing, lhs, {}), Transformation(nothing, nothing, {}), kind=DPO)
    rule_path = tmp_path / "delete_rule.json"
    rule_path.write_text(jsonio.dumps(jsonio.rule_to_obj(rule, "graph")))
    match_path = tmp_path / "m.json"
    match_path.write_text(jsonio.dumps({"comp": {"V": [1], "E": []}}))
    code = main(
        [
            "rewrite",
            str(rule_path),
            fixture("small_graph.json"),
            "--schema",
            fixture("graph.json"),
            "--match",
            str(match_path),
        ]
    )
    assert code == 1
    assert "refused" in capsys.readouterr().err


def _write_rewrite_case(tmp_path, case: str) -> list[str]:
    """Arguments of a `rewrite --match` call the library refuses with `case`."""
    if case == "MatchNotNaturalError":
        # flip_match.json with the first two vertices swapped
        match = {"comp": {"V": [2, 1, 4, 5], "E": [1, 6, 5, 3, 8], "T": [1, 2]}}
        paths = [fixture("flip_rule.json"), fixture("mesh_1x2.json"), "--schema", fixture("d2.json")]
    else:
        if case == "NotMonicError":  # DPO with a left leg that merges two vertices
            g = graph_schema()
            one, two = make_instance(g, {"V": 1}, {}), make_instance(g, {"V": 2}, {})
            rule = Rule(Transformation(two, one, {"V": [1, 1]}), identity(two), kind=DPO)
            host, match = make_instance(g, {"V": 1}, {}), {"comp": {"V": [1], "E": []}}
        else:  # SqPO needs an acyclic schema for its classifier
            loop = SchemaPresentation(["V"], [Generator("f", "V", "V")])
            host = make_instance(loop, {"V": 1}, {"f": [1]})
            rule = Rule(identity(host), identity(host), kind=SQPO)
            match = {"comp": {"V": [1]}}
        (tmp_path / "rule.json").write_text(jsonio.dumps(jsonio.rule_to_obj(rule)))
        (tmp_path / "host.json").write_text(jsonio.dumps(jsonio.instance_to_obj(host)))
        paths = [str(tmp_path / "rule.json"), str(tmp_path / "host.json")]
    (tmp_path / "match.json").write_text(jsonio.dumps(match))
    return ["rewrite", *paths, "--match", str(tmp_path / "match.json")]


@pytest.mark.parametrize("case", ["MatchNotNaturalError", "NotMonicError", "CyclicSchemaError"])
def test_cli_rewrite_refusal_exit_code(case, tmp_path, capsys):
    assert main(_write_rewrite_case(tmp_path, case)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "error, code",
    [
        (NotMonicError, 1),
        (MatchNotNaturalError, 1),
        (CyclicSchemaError, 1),
        (TypingMismatchError, 1),
        (CommutativityFailureError, 1),
        (ValueError, 2),
        (IndexError, 2),
        (PartOutOfRangeError, 2),
    ],
)
def test_cli_library_error_exit_codes(error, code, monkeypatch, capsys):
    def refuse(*args):
        raise error("refused here")

    monkeypatch.setattr(cli, "compose_cospans", refuse)
    argv = ["compose", fixture("open_edge_a.json"), fixture("open_edge_b.json"), "--schema", fixture("graph.json")]
    assert main(argv) == code
    assert capsys.readouterr().err == "error: refused here\n"


def test_cli_key_error_exit_2(monkeypatch, capsys):
    def refuse(*args):
        raise KeyError("refused here")

    monkeypatch.setattr(cli, "compose_cospans", refuse)
    argv = ["compose", fixture("open_edge_a.json"), fixture("open_edge_b.json"), "--schema", fixture("graph.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "refused here" in err and err.count("\n") == 1


def test_cli_bad_value_exit_code(capsys):
    argv = ["homs", fixture("small_graph.json"), fixture("small_graph.json"), "--schema", fixture("graph.json")]
    assert main([*argv, "--limit", "-1"]) == 2
    assert main([*argv, "--limit", "0", "--count"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_cli_rewrite_kind_mismatch(capsys):
    code = main(
        [
            "rewrite",
            fixture("flip_rule.json"),
            fixture("mesh_1x2.json"),
            "--schema",
            fixture("d2.json"),
            "--all",
            "--kind",
            "spo",
        ]
    )
    assert code == 2


def test_cli_compose(tmp_path):
    out = tmp_path / "path.json"
    code = main(
        [
            "compose",
            fixture("open_edge_a.json"),
            fixture("open_edge_b.json"),
            "--schema",
            fixture("graph.json"),
            "-o",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    apex = jsonio.parse_instance(doc["apex"])
    assert apex.card == {"V": 3, "E": 2}


def test_cli_colimit_cube(tmp_path):
    out = tmp_path / "cube.json"
    code = main(
        [
            "colimit",
            fixture("cube_diagram.json"),
            "--schema",
            fixture("graph.json"),
            "-o",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    apex = jsonio.parse_instance(doc["apex"])
    assert apex.card == {"V": 8, "E": 12}


def test_cli_gen_mesh_matches_library(tmp_path):
    out = tmp_path / "mesh.json"
    assert main(["gen-mesh", "2", "3", "-o", str(out)]) == 0
    parsed = jsonio.parse_instance(json.loads(out.read_text()))
    assert parsed == gen_mesh(2, 3)


@pytest.mark.parametrize("rows, cols", [("0", "2"), ("2", "-1")])
def test_cli_gen_mesh_rejects_empty_grid(rows, cols, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gen-mesh", rows, cols])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "positive integer" in err
    assert "Traceback" not in err


def test_cli_gen_mesh_schema_ref(tmp_path):
    out = tmp_path / "mesh.json"
    assert main(["gen-mesh", "1", "1", "--schema-ref", "d2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "d2"
    text = out.read_text()
    assert text == (FIXTURES / "two_triangles.json").read_text()


def test_cli_bench_empty_sizes(capsys):
    assert main(["bench", "--task", "homsearch", "--sizes", ""]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "size,rows,cols,count,seconds,first_seconds"
    assert len(out.splitlines()) == 1


def test_cli_bench_counts(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--task", "rewrite", "--sizes", "1x1,1x2", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "size,rows,cols,count,seconds,first_seconds"
    counts = [int(r.split(",")[3]) for r in rows[1:]]
    assert counts == [2, 4]


def test_cli_bench_json_holds_the_rows_and_where_they_ran(capsys, tmp_path):
    import platform

    assert main(["bench", "--task", "homsearch", "--sizes", "1x1,2x2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["python", "platform", "rows"]
    assert doc["python"] == platform.python_version() and doc["platform"] == platform.platform()
    assert [list(row) for row in doc["rows"]] == [["size", "rows", "cols", "count", "seconds", "first_seconds"]] * 2
    assert [(r["size"], r["rows"], r["cols"], r["count"]) for r in doc["rows"]] == [("1x1", 1, 1, 4), ("2x2", 2, 2, 16)]
    assert all(r["first_seconds"] > 0 and r["seconds"] > 0 for r in doc["rows"])
    out = tmp_path / "bench.json"
    assert main(["bench", "--task", "rewrite", "--sizes", "1x1,1x2", "--json", "-o", str(out)]) == 0
    assert [r["count"] for r in json.loads(out.read_text())["rows"]] == [2, 4]


def test_cli_bench_reports_the_first_call(capsys):
    assert main(["bench", "--task", "step", "--kind", "sqpo", "--sizes", "2x2"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["size"] == "2x2" and row["count"] == "33"
    assert float(row["first_seconds"]) > 0 and float(row["seconds"]) > 0


@pytest.mark.parametrize("kind", ["dpo", "spo", "sqpo"])
def test_cli_bench_step_counts(kind, capsys):
    # one flip at a pinned interior cell: the result has the mesh's parts
    assert main(["bench", "--task", "step", "--kind", kind, "--sizes", "1x1,2x2,3x3,2x5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "size,rows,cols,count,seconds,first_seconds"
    assert [int(r.split(",")[3]) for r in rows[1:]] == [11, 33, 67, 75]


def test_cli_parse_error_exit(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2


def test_cli_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["validate", str(deep)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["validate", "compose"])
def test_cli_directory_argument_exits_2(command, tmp_path, capsys):
    args = [command, str(tmp_path)] + ([str(tmp_path)] if command == "compose" else [])
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_cli_output_is_byte_deterministic(tmp_path):
    args = [
        "homs",
        fixture("quad_pattern.json"),
        fixture("mesh_1x2.json"),
        "--schema",
        fixture("d2.json"),
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# Ill-typed and truncated documents

# Per document kind: a fixture and the command that reads it, with "{}"
# standing for the (mutated) copy of the fixture.
DOCUMENT_COMMANDS = {
    "schema": ("d2.json", ["validate", "{}"]),
    "instance": ("mesh_1x2.json", ["validate", "{}", "--schema", fixture("d2.json")]),
    "rule": ("flip_rule.json", ["rewrite", "{}", fixture("mesh_1x2.json"), "--schema", fixture("d2.json"), "--all"]),
    "transformation": (
        "flip_match.json",
        ["rewrite", fixture("flip_rule.json"), fixture("mesh_1x2.json"), "--schema", fixture("d2.json"), "--match", "{}"],
    ),
    "cospan": ("open_edge_a.json", ["compose", "{}", fixture("open_edge_b.json"), "--schema", fixture("graph.json")]),
    "diagram": ("cube_diagram.json", ["colimit", "{}", "--schema", fixture("graph.json")]),
}
SWAPS = (1.5, True, "1", None, [], {})


def _run_mutated(tmp_path, kind: str, text: str, capsys) -> tuple[int, str]:
    name, argv = DOCUMENT_COMMANDS[kind]
    path = tmp_path / name
    path.write_text(text)
    code = main([str(path) if a == "{}" else a for a in argv])
    return code, capsys.readouterr().err


def _positions(doc, path=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _positions(value, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_fixtures_pass_their_commands(tmp_path, capsys):
    for kind, (name, _) in DOCUMENT_COMMANDS.items():
        assert _run_mutated(tmp_path, kind, (FIXTURES / name).read_text(), capsys) == (0, ""), kind


@pytest.mark.parametrize("kind", sorted(DOCUMENT_COMMANDS))
def test_cli_ill_typed_documents_exit_2(kind, tmp_path, capsys):
    import random

    doc = load(DOCUMENT_COMMANDS[kind][0])
    positions = list(_positions(doc))
    rng = random.Random(kind)
    for path, value in rng.sample(positions, min(40, len(positions))):
        for swap in SWAPS:
            if type(swap) is type(value):
                continue
            code, err = _run_mutated(tmp_path, kind, jsonio.dumps(_replaced(doc, path, swap)), capsys)
            assert (code, err.count("\n")) == (2, 1), (path, swap, err)
            assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(DOCUMENT_COMMANDS))
def test_cli_truncated_documents_exit_2(kind, tmp_path, capsys):
    text = (FIXTURES / DOCUMENT_COMMANDS[kind][0]).read_text()
    for cut in range(1, len(text) - 1, max(1, len(text) // 12)):
        code, err = _run_mutated(tmp_path, kind, text[:cut], capsys)
        assert (code, err.count("\n")) == (2, 1), (cut, err)
        assert err.startswith("error: ")


ILL_FORMED_SCHEMA = {
    "objects": ["V", "E"],
    "generators": [{"name": "src", "dom": "E", "cod": "W"}, {"name": "tgt", "dom": "E", "cod": "V"}],
}


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("instance", ("card",), [1]),
        ("transformation", ("comp",), [1]),
        ("instance", ("columns", "src"), None),
        ("transformation", ("comp", "V"), None),
        ("instance", ("columns", "src", 0), 1.5),
        ("instance", ("columns", "src", 0), True),
        ("transformation", ("comp", "V", 0), 1.5),
        ("transformation", ("comp", "X"), [1]),
        ("instance", ("schema",), ILL_FORMED_SCHEMA),
    ],
)
def test_cli_named_ill_typed_inputs_exit_2(kind, path, value, tmp_path, capsys):
    doc = _replaced(load(DOCUMENT_COMMANDS[kind][0]), path, value)
    code, err = _run_mutated(tmp_path, kind, jsonio.dumps(doc), capsys)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "homs"])
def test_cli_instance_over_ill_formed_named_schema_exits_2(command, tmp_path, capsys):
    schema = tmp_path / "s.json"
    schema.write_text(jsonio.dumps(ILL_FORMED_SCHEMA))
    doc = {"schema": "s", "card": {"V": 1, "E": 1}, "columns": {"src": [1], "tgt": [1]}}
    inst = tmp_path / "i.json"
    inst.write_text(jsonio.dumps(doc))
    args = [str(inst)] if command == "validate" else [str(inst), str(inst)]
    code = main([command, *args, "--schema", str(schema)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "unknown codomain 'W'" in err


def test_cli_validate_still_reports_an_ill_formed_schema(tmp_path, capsys):
    schema = tmp_path / "s.json"
    schema.write_text(jsonio.dumps(ILL_FORMED_SCHEMA))
    assert main(["validate", str(schema)]) == 1
    out = capsys.readouterr().out
    assert "INVALID (schema)" in out and "unknown codomain 'W'" in out
