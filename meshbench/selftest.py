"""Fast self-test of the benchmark, run from the root of a checkout:

    python3 meshbench/selftest.py

Runs every workload at its smallest size, untraced and traced, and feeds
each verifier one corrupted output to show that it is rejected. Exits 1
if any case goes wrong.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import checks
import run
import spans

FAILURES: list[str] = []


def case(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def rejects(name: str, verify) -> None:
    """`verify` must raise CheckFailed."""
    try:
        verify()
    except checks.CheckFailed as exc:
        case(name, True, f"rejected ({exc})")
    else:
        case(name, False, "corrupted output accepted")


def with_column(x, gen: str, col: list[int]):
    return dataclasses.replace(x, column={**x.column, gen: col})


def swapped(values: list[int]) -> list[int]:
    """Swap the first two entries that differ."""
    out = list(values)
    j = next(j for j in range(1, len(out)) if out[j] != out[0])
    out[0], out[j] = out[j], out[0]
    return out


def first_output(w):
    """The engine's output for the first op of a round."""
    w.start_round()
    return w.op(0)[0]()


def main() -> int:
    error = run.import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from csetrw import Transformation, flip_rule, quad_pattern
    from workloads import WORKLOADS, Flip, Glue, Match, Sesqui

    for name, cls in WORKLOADS.items():
        for traced in (False, True):
            w = cls(seed=7, small=True)
            tr = spans.Tracer() if traced else None
            result = run.new_run()
            try:
                run.measure(w, 0.0, tr, result)
                metrics = run.per_layer(result, tr) if tr else run.end_to_end(result)
                ok = result["failed"] == 0 and result["attempted"] == w.ops_per_round
                case(f"{name} {'traced' if traced else 'untraced'} round", ok, f"{result['attempted']} ops, {len(metrics)} metrics")
            except checks.CheckFailed as exc:
                case(f"{name} {'traced' if traced else 'untraced'} round", False, str(exc))

    w = Match(seed=7, small=True)
    w.load(w.documents())
    case("pattern document is quad_pattern()", w.pattern == quad_pattern())
    out = first_output(w)
    rejects("match: a dropped match", lambda: w.check(0, out[:-1]))
    rejects("match: a repeated match", lambda: w.check(0, out + out[:1]))

    w = Flip(seed=7, small=True)
    w.load(w.documents())
    rule = flip_rule()
    case("flip rule document is flip_rule()", (w.rule.l, w.rule.r) == (rule.l, rule.r))
    out = first_output(w)
    k_to_result = out.maps["k_to_result"]
    bad_map = Transformation(k_to_result.dom, k_to_result.cod, {**k_to_result.comp, "E": swapped(k_to_result.comp["E"])})
    rejects("natural: a swapped component entry", lambda: checks.natural(bad_map, "k_to_result"))
    bad = dataclasses.replace(out, result=with_column(out.result, "src", swapped(out.result.column["src"])))
    rejects("flip step: a swapped src entry in the result", lambda: w.check(0, bad))
    w.start_round()
    for i in range(w.ops_per_round):
        w.check(i, w.op(i)[0]())
    host = w.host
    w.host = with_column(host, "d1", swapped(host.column["d1"]))
    rejects("flip chain end: a swapped d1 entry", w.end_round)
    w.host = host
    w.ids["V"] = dict(zip(w.ids["V"], swapped(list(w.ids["V"].values()))))
    rejects("flip chain end: two vertices tracked to each other's part", w.end_round)

    w = Sesqui(seed=7, small=True)
    w.load(w.documents())
    o1, o2 = first_output(w)
    rejects("sesqui clone: no copy made", lambda: w.check(0, (dataclasses.replace(o1, result=w.host), o2)))
    tgt = list(o2.result.column["tgt"])
    tgt[0] = next(v for v in range(1, o2.result.card["V"] + 1) if v != tgt[0])
    rejects("sesqui delete: an edge moved to another vertex", lambda: w.check(0, (o1, dataclasses.replace(o2, result=with_column(o2.result, "tgt", tgt)))))

    w = Glue(seed=7, small=True)
    w.load(w.documents())
    apex, legs, composite = first_output(w)
    leg = legs["cell0,0"]
    bad_legs = {**legs, "cell0,0": Transformation(leg.dom, leg.cod, {**leg.comp, "V": swapped(leg.comp["V"])})}
    rejects("glue colimit: two corners of a cell swapped", lambda: w.check(0, (apex, bad_legs, composite)))
    rejects("glue composite: one strip instead of all", lambda: w.check(0, (apex, legs, w.strips[0][0])))

    listed = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    case("BENCHMARK.json end_to_end names what run.py prints",
         {m["name"]: m["unit"] for m in listed["end_to_end"]} == run.END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in listed["per_layer"]}
    printed = {**dict.fromkeys(run.PER_LAYER_MS, "ms"), **dict.fromkeys(run.PER_LAYER_COUNTS, "count")}
    case("BENCHMARK.json per_layer names what run.py prints", per_layer == printed)
    case("BENCHMARK.json workloads are the ones run.py knows", [x["name"] for x in listed["workloads"]] == list(WORKLOADS))

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
