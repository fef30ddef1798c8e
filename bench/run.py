"""Benchmark of feac: seeded workloads through the public entry points.

Run from the root of a checkout (standard library only):

    python3 bench/run.py --workload surge --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seconds 60

One operation takes one generated scenario through set-up
(`scenario.parse_scenario` + `model.validate_store`), simulation
(`sim.run_simulation`), audit (`feac audit TRACE --scenario FILE`, called
in-process through `cli.main`) and static planning of every entity group at
gate 0, as `feac plan` does. After one warm-up round, the workload's
operations repeat in rounds until `--seconds` (warm-up included) have
passed; each end-to-end time is the median over rounds of the round's
total in reference seconds: scaled by the host's speed on a fixed reference
workload timed during the round (see `calibrate.py`). README.md lists the
workloads and metrics.

An operation fails on an exception, a diagnostic or store violation, an
audit exit code other than 0 (a checker violation or a re-run that differs),
or a trace or static-plan digest that differs from the one recorded in
`digests.json` for that workload and seed. Seeds without recorded digests
are checked against the run's own first round, and their digests are
printed so two versions of the program can be compared.

`--trace 1` alternates untraced and traced rounds. Traced rounds wrap each
layer's entry points (see `tracing.py`) and give the per-layer metrics;
their medians are reported, and the count metrics must repeat exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import gen
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
WORKLOADS = tuple(gen.SCALES)
PHASES = ("setup_s", "simulate_s", "audit_s", "plan_s")
END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "audit_s": "s",
    "plan_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


class OperationFailed(Exception):
    pass


def load_program() -> None:
    """Import feac from this checkout's `src`, never from anywhere else."""
    src = ROOT / "src"
    package = src / "feac"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no program source at {package}")
    sys.path.insert(0, str(src))
    import feac

    if Path(feac.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported feac from {feac.__file__}, not from {package}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Operation:
    name: str
    text: str
    scenario_path: str
    trace_path: str


@dataclass
class Round:
    times: dict[str, float]
    digests: list[tuple[str, str] | None] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # operation index -> why


def prepare(workload: str, seed: int, workdir: Path, scale=None) -> list[Operation]:
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, text in gen.workload_texts(workload, seed, scale):
        path = workdir / f"{name}.feac"
        path.write_text(text, encoding="utf-8")
        ops.append(Operation(name, text, str(path), str(workdir / f"{name}.trace")))
    return ops


def static_plan(sc) -> str:
    """Every entity group planned at gate 0 with nothing locked, as `feac plan`."""
    from feac import planner
    from feac.exact import ZERO

    resources = frozenset(
        r for em in sc.emergencies.values() for ts in em.task_sets for r in ts.resources
    )
    blocks = []
    for entity in sorted({em.entity for em in sc.emergencies.values()}):
        group = [em for em in sc.emergencies.values() if em.entity == entity]
        graph = planner.build_transition_graph(
            group,
            sc.store.tdt,
            sc.infl,
            sc.config.planner,
            gate_release=ZERO,
            available_resources=resources,
        )
        pv = planner.compute_p_value(graph)
        if pv > ZERO:
            path = planner.select_optimal_path(graph)
            strategy = "optimal"
        elif sc.config.fallback_strategy == "time_first":
            path = planner.time_first_select(graph)
            strategy = "time_first"
        else:
            path = planner.prob_first_select(graph)
            strategy = "probability_first"
        header = f"group={entity} orders={graph.order_count} sampled={graph.sampled}\n"
        blocks.append(header + planner.plan_to_text(pv, path, strategy))
    return "".join(blocks)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def set_up(op: Operation):
    """(scenario, first diagnostic or store violation, or None)."""
    from feac import model, scenario

    sc, diags = scenario.parse_scenario(op.text, op.name)
    problems = [str(d) for d in diags] or [
        str(v) for v in model.validate_store(sc.store, list(sc.emergencies.values()))
    ]
    return sc, problems[0] if problems else None


def run_operation(op: Operation, times: dict[str, float], span, poll) -> tuple[str, str]:
    from feac import cli, sim

    def timed(phase: str, fn, *args):
        poll()
        start = perf_counter()
        with span(f"bench.{phase[:-2]}"):
            result = fn(*args)
        times[phase] += perf_counter() - start
        return result

    sc, problem = timed("setup_s", set_up, op)
    if problem:
        raise OperationFailed(f"scenario does not validate: {problem}")
    # Planning comes before simulation so that no trace is alive while it
    # runs: a collector pass in this short phase then has little to scan.
    plan = timed("plan_s", static_plan, sc)
    trace = timed("simulate_s", sim.run_simulation, sc)
    Path(op.trace_path).write_text(trace.trace_text, encoding="utf-8")
    out = io.StringIO()
    argv = ["audit", op.trace_path, "--scenario", op.scenario_path]
    code = timed("audit_s", cli.main, argv, out, out)
    if code != 0:
        first = out.getvalue().splitlines()[:1]
        raise OperationFailed(f"audit exit {code}: {first[0] if first else ''}")
    return _sha(trace.trace_text), _sha(plan)


def _no_span(name: str):
    return nullcontext()


def _no_poll() -> None:
    pass


def run_round(ops: list[Operation], tracer: tracing.Tracer | None = None, poll=_no_poll) -> Round:
    """Every operation once; `poll` is called before each timed phase."""
    gc.collect()
    span = tracer.span if tracer is not None else _no_span
    result = Round(times=dict.fromkeys(PHASES, 0.0))
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        try:
            result.digests.append(run_operation(op, result.times, span, poll))
        except Exception as exc:  # an operation failure: counted and reported
            where = traceback.extract_tb(exc.__traceback__)[-1]
            result.digests.append(None)
            result.failures[index] = f"{op.name}: {exc!r} at {where.filename}:{where.lineno}"
    return result


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def recorded_digests(workload: str, seed: int) -> list[list[str]] | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def record_digests(workload: str, seed: int, digests: list) -> None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = [list(d) if d else None for d in digests]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check_digests(rounds: list[Round], expected: list, ops: list[Operation]) -> None:
    """Fail every operation whose trace or plan digest is not the expected one."""
    for rnd in rounds:
        for index, (op, got, want) in enumerate(zip(ops, rnd.digests, expected)):
            if got is not None and want is not None and list(got) != list(want):
                kind = "trace" if got[0] != want[0] else "plan"
                rnd.failures.setdefault(index, f"{op.name}: {kind} digest differs")


def combined_digest(digests: list, column: int) -> str:
    return _sha("\n".join(d[column] if d else "-" for d in digests))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "scenario.bytes_per_s":
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(ops: list[Operation], seconds: float, tracer: tracing.Tracer | None):
    """(every round run, metrics, problems other than operation failures,
    informational figures).

    The warm-up round counts against `seconds`, and a round (a pair of
    rounds when traced) starts only if one as long as the last still fits,
    so a run lasts about `seconds` once it has measured one round. Samples
    of the reference workload taken before, between the phases of, and after
    each untraced round give its scale to reference seconds. With a tracer,
    untraced and traced rounds alternate and the tracer keeps the spans of
    the last traced round.
    """
    deadline = perf_counter() + seconds
    rounds = [run_round(ops)]  # warm-up: checked, not timed
    plain: list[Round] = []
    scales: list[float] = []
    traced: list[dict[str, float]] = []
    last = 0.0
    sampler = calibrate.Sampler()
    sampler.poll(force=True)
    while not plain or perf_counter() + last < deadline:
        started = perf_counter()
        plain.append(run_round(ops, poll=sampler.poll))
        rounds.append(plain[-1])
        sampler.poll(force=True)
        scales.append(sampler.scale())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                rounds.append(run_round(ops, tracer))
            finally:
                tracer.remove()
            traced.append(tracing.layer_metrics(tracer))
            traced[-1]["simulate_s"] = rounds[-1].times["simulate_s"]
            sampler.restart()
        last = perf_counter() - started

    info = {f"measured {name}": _median(r.times[name] for r in plain) for name in PHASES}
    info["reference s per s"] = _median(scales)
    if tracer is None:
        metrics = {
            name: _median(r.times[name] * k for r, k in zip(plain, scales)) for name in PHASES
        }
        metrics["peak_rss_mb"] = peak_rss_mb()
        return rounds, metrics, [], info

    problems = tracing.span_tree_errors(tracer)[:5]
    metrics = {}
    for name in tracing.LAYER_METRICS:
        values = [layers[name] for layers in traced]
        if name in tracing.COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = _median(values)
    metrics["trace.overhead_ratio"] = _median(
        layers["simulate_s"] for layers in traced
    ) / _median(r.times["simulate_s"] for r in plain)
    return rounds, metrics, problems, info


def print_simulate_shares(tracer: tracing.Tracer) -> None:
    """Where the traced `run_simulation` calls of one round spent their time."""
    total = tracing.span_totals(tracer, within="bench.simulate")[1]
    whole = total["bench.simulate"] or 1.0
    shares = {
        "staffing (engine.select_subject)": total["engine.select_subject"],
        "planner (build + value + select)": total["planner.build"]
        + total["planner.value"]
        + total["planner.select"],
        "grants (engine.enable + rescind)": total["engine.enable"] + total["engine.rescind"],
        "audit.append": total["audit.append"],
    }
    print("share of traced simulate time, by layer:")
    for label, seconds in shares.items():
        print(f"  {label:34s} {100 * seconds / whole:6.1f} %")


def run_workload(args) -> int:
    load_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        started = perf_counter()
        ops = prepare(args.workload, args.seed, workdir)
        print(
            f"workload {args.workload} seed={args.seed}: {len(ops)} operation(s), "
            f"generated in {perf_counter() - started:.3f} s"
        )
        rounds, metrics, problems, info = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        print_simulate_shares(tracer)
        tracing.write_spans(tracer, WORK / f"spans-{args.workload}-{args.seed}.tsv")

    recorded = recorded_digests(args.workload, args.seed)
    if recorded is not None and len(recorded) != len(ops):
        problems.append(f"digests.json holds {len(recorded)} operations, the workload {len(ops)}")
    check_digests(rounds, recorded if recorded is not None else rounds[0].digests, ops)
    if args.record:
        record_digests(args.workload, args.seed, rounds[0].digests)

    first = rounds[0].digests
    print(
        f"digests {args.workload} seed={args.seed} "
        f"({'checked against digests.json' if recorded is not None else 'not recorded'}): "
        f"traces={combined_digest(first, 0)[:16]} plans={combined_digest(first, 1)[:16]}"
    )
    failures = [message for rnd in rounds for message in rnd.failures.values()]
    for message in (failures + problems)[:10]:
        print(f"FAIL {message}")
    attempted = len(rounds) * len(ops)
    print(f"rounds {len(rounds)} (1 warm-up), operations per round {len(ops)}")
    print(f"error_rate {len(failures) / attempted:.6f} ({len(failures)}/{attempted} failed)")
    for name, value in info.items():
        print(f"{name:32s} {value:14.6f}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit_of(name)}")

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"{workload} exited {done.returncode}: {done.stderr.strip()}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])

    names = list(results[WORKLOADS[0]]["metrics"])
    print()
    print(f"{'metric':32s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = "".join(f"{results[w]['metrics'][name]['value']:16.6f}" for w in WORKLOADS)
        print(f"{name:32s}{cells}  {results[WORKLOADS[0]]['metrics'][name]['unit']}")
    rates = "".join(f"{results[w]['failed'] / results[w]['attempted']:16.6f}" for w in WORKLOADS)
    print(f"{'error_rate':32s}{rates}  ratio")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="store this run's digests in digests.json"
    )
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
