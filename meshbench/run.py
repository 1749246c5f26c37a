"""Run one workload of the mesh benchmark and print its result.

    python3 meshbench/run.py --workload flip --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: csetrw is imported from ./src and
nowhere else. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run also
writes its spans as JSON lines to --spans, by default
meshbench/out/spans_<workload>_<seed>.jsonl. The exit code is 1 when an
output check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import spans

# Set-up is timed in bursts spread over the run, so that its median, like
# the ops', is taken over the whole run and not over one stretch of a
# machine whose speed drifts.
SETUP_EVERY_SECONDS = 2.5
SETUP_BURST_SECONDS = 0.05

LAYER_CALLS = [
    "search.homomorphisms",
    "transform.is_natural",
    "instance.validate",
    "instance.build_index",
    "instance.restrict",
    "colimits.check_pushout_complement",
    "colimits.pushout_complement",
    "colimits.pushout",
    "colimits.partial_map_classifier",
    "colimits.pullback",
    "colimits.final_pullback_complement",
    "colimits.coproduct",
    "rewrite.dpo",
    "rewrite.spo",
    "rewrite.sqpo",
    "rewrite.deletion_closure",
    "open_systems.diagram_colimit",
    "open_systems.compose_cospans",
]
SELF_TIMED = [
    "rewrite.dpo",
    "rewrite.spo",
    "rewrite.sqpo",
    "colimits.pushout_complement",
    "colimits.pushout",
    "colimits.final_pullback_complement",
    "colimits.pullback",
    "colimits.coproduct",
    "instance.restrict",
    "open_systems.diagram_colimit",
    "open_systems.compose_cospans",
]
LAYERS = ["search", "transform", "instance", "colimits", "rewrite", "open_systems"]
PER_LAYER_MS = (
    [f"{c}_ms" for c in LAYER_CALLS]
    + [f"{c}_self_ms" for c in SELF_TIMED]
    + [f"{layer}.{kind}" for layer in LAYERS for kind in ("ms", "self_ms")]
    + ["jsonio.parse_ms", "trace.op_ms", "trace.untraced_op_ms", "trace.overhead_ms"]
)
PER_LAYER_COUNTS = ["search.results", "instance.output_parts"]
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program() -> str | None:
    """Put ./src first on the path; an error message if csetrw is not there."""
    src = Path.cwd() / "src"
    if not (src / "csetrw" / "__init__.py").is_file():
        return f"no csetrw package under {src}; run from the root of a checkout"
    sys.path.insert(0, str(src))
    import csetrw

    if Path(csetrw.__file__).resolve().parent != (src / "csetrw").resolve():
        return f"csetrw was imported from {csetrw.__file__}, not {src}"
    return None


def new_run() -> dict:
    return {"times": [], "setup": [], "counts": dict.fromkeys(PER_LAYER_COUNTS, 0), "attempted": 0, "failed": 0}


def set_up(w, tr, times: list[float]) -> None:
    """Generate and load every input, at least once and for at least
    SETUP_BURST_SECONDS; the workload keeps the last load."""
    spent = 0.0
    while spent < SETUP_BURST_SECONDS:
        if tr is not None:
            tr.op = -1 - len(times)
        start = perf_counter()
        w.load(w.documents(), tr)
        times.append(perf_counter() - start)
        spent += times[-1]


def measure(w, seconds: float, tr, run: dict) -> None:
    """Whole rounds of ops until `seconds` of wall time have passed, with
    a set-up burst before a round whenever SETUP_EVERY_SECONDS have passed.

    An op that raises counts as failed and ends its round, since the
    ops after it in a chain depend on its output."""
    times, counts = run["times"], run["counts"]
    start = perf_counter()
    next_setup = start
    while True:
        if perf_counter() >= next_setup:
            set_up(w, tr, run["setup"])
            next_setup = perf_counter() + SETUP_EVERY_SECONDS
        w.start_round()
        for i in range(w.ops_per_round):
            run["attempted"] += 1
            engine, replay = w.op(i)
            t0 = perf_counter()
            try:
                out = engine()
            except Exception:
                run["failed"] += 1
                traceback.print_exc(file=sys.stderr)
                break
            times.append(perf_counter() - t0)
            if tr is not None:
                tr.op = run["attempted"]
                if replay(tr) != out:
                    raise checks.CheckFailed(f"{w.name} op {i}: replay output differs from the engine's")
            counts["search.results"] += w.results(out)
            counts["instance.output_parts"] += w.output_parts(out)
            w.check(i, out)
        else:
            w.end_round()
        if perf_counter() - start >= seconds:
            break


def end_to_end(run: dict) -> dict:
    times = run["times"]
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(run: dict, tr) -> dict:
    ops = len(run["times"])
    values = spans.summarize(tr.spans, range(1, run["attempted"] + 1))
    setup_values = spans.summarize(tr.spans, range(-len(run["setup"]), 0))
    values["jsonio.parse_ms"] = setup_values.get("jsonio.parse_ms", 0.0)
    values["trace.untraced_op_ms"] = sum(run["times"]) / ops * 1e3
    values["trace.overhead_ms"] = values.get("trace.op_ms", 0.0) - values["trace.untraced_op_ms"]
    metrics = {name: {"value": values.get(name, 0.0), "unit": "ms"} for name in PER_LAYER_MS}
    for name in PER_LAYER_COUNTS:
        metrics[name] = {"value": run["counts"][name] / ops, "unit": "count"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)
    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](args.seed)
    tr = spans.Tracer() if args.trace else None
    run = new_run()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        measure(w, args.seconds, tr, run)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
    result["attempted"], result["failed"] = run["attempted"], run["failed"]
    if result["correct"] and not run["times"]:
        print("error: no op completed", file=sys.stderr)
        result["correct"] = False
    if result["correct"]:
        result["metrics"] = per_layer(run, tr) if tr else end_to_end(run)
        if tr is not None:
            path = args.spans or Path(__file__).parent / "out" / f"spans_{w.name}_{args.seed}.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            tr.write(path)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
