"""Command-line front end: validate, plan, simulate, audit.

Exit codes: 0 success, 1 failed validation or failed checks, 2 usage or
input errors (missing, unreadable or non-UTF-8 files, malformed traces,
broken scenarios where a working one is required), 3 simulation ended in
disaster.
"""

from __future__ import annotations

import argparse
import sys

from .audit import AuditFormatError, parse_trace
from .checks import CheckViolation, check_trace, first_difference
from .engine import MODE_DISASTER, select_path
from .exact import ZERO, format_number, parse_integer, parse_number
from .model import validate_store
from .planner import ResponseGraph, build_transition_graph, compute_p_value, plan_to_text
from .scenario import Scenario, load_scenario, print_scenario
from .sim import run_simulation


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load(path: str, read, err):
    """`read(path)`, or None after an `error:` line when the file cannot be
    read or is not UTF-8 text."""
    try:
        return read(path)
    except OSError as exc:
        print(f"error: {exc}", file=err)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text (byte {exc.start}: {exc.reason})", file=err)
    return None


def _load_clean(path: str, out, err) -> Scenario | None:
    loaded = _load(path, load_scenario, err)
    if loaded is None:
        return None
    scenario, diags = loaded
    if diags:
        for diag in diags:
            print(diag, file=out)
        return None
    return scenario


def cmd_validate(args, out, err) -> int:
    loaded = _load(args.scenario, load_scenario, err)
    if loaded is None:
        return 2
    scenario, diags = loaded
    for diag in diags:
        print(diag, file=out)
    if diags:
        return 1
    violations = validate_store(scenario.store, list(scenario.emergencies.values()))
    for violation in violations:
        print(violation, file=out)
    if violations:
        return 1
    if args.print:
        out.write(print_scenario(scenario))
    else:
        print(
            f"ok: scenario {scenario.name}, {len(scenario.emergencies)} emergencies, "
            f"{len(scenario.store.subjects)} subjects, {len(scenario.events)} events",
            file=out,
        )
    return 0


def cmd_plan(args, out, err) -> int:
    if args.at < ZERO:
        print("error: --at must not be negative", file=err)
        return 2
    scenario = _load_clean(args.scenario, out, err)
    if scenario is None:
        return 2
    group = [em for em in scenario.emergencies.values() if em.entity == args.group]
    if not group:
        print(f"error: no emergencies on entity {args.group!r}", file=err)
        return 1
    locked = frozenset(r for r in (args.locked or "").split(",") if r)
    all_resources = frozenset(
        r for em in scenario.emergencies.values() for ts in em.task_sets for r in ts.resources
    )
    graph = build_transition_graph(
        group,
        scenario.store.tdt,
        scenario.infl,
        scenario.config.planner,
        gate_release=args.at,
        available_resources=all_resources - locked,
    )
    pv = compute_p_value(graph)
    path, strategy = select_path(graph, pv, scenario.config.fallback_strategy)
    print(
        f"group={args.group} orders={graph.order_count} "
        f"paths={_path_count(graph, scenario.config.planner.k_cap)} "
        f"sampled={'yes' if graph.sampled else 'no'} "
        f"gate={format_number(graph.root.elapsed)}",
        file=out,
    )
    out.write(plan_to_text(pv, path, strategy))
    return 0


def _path_count(graph: ResponseGraph, k: int) -> int:
    """`graph`'s root-to-terminal paths, read off its build: none when some
    emergency has no task set, the `k` drawn orders if sampled, else one per order."""
    if not graph.root.edges:
        return 0
    return k if graph.sampled else graph.order_count


def cmd_simulate(args, out, err) -> int:
    if args.until is not None and args.until <= ZERO:
        print("error: --until must be positive", file=err)
        return 2
    scenario = _load_clean(args.scenario, out, err)
    if scenario is None:
        return 2
    trace = run_simulation(scenario, seed=args.seed, horizon=args.until)
    # With no --trace the trace goes to stdout; the summary then moves to
    # stderr so the trace stream stays parseable as-is.
    summary_stream = out if args.trace else err
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(trace.trace_text)
        except OSError as exc:
            print(f"error: {exc}", file=err)
            return 2
    else:
        out.write(trace.trace_text)
    records = trace.trace_text.count("\n")
    print(
        f"final={trace.final_mode} clock={format_number(trace.final_clock)} "
        f"records={records}"
        + (f" trace={args.trace}" if args.trace else ""),
        file=summary_stream,
    )
    outcome_bits = " ".join(f"{eid}={trace.outcomes[eid]}" for eid in sorted(trace.outcomes))
    print(f"outcomes: {outcome_bits or '-'}", file=summary_stream)
    return 3 if trace.final_mode == MODE_DISASTER else 0


def cmd_audit(args, out, err) -> int:
    text = _load(args.trace, _read_text, err)
    if text is None:
        return 2
    try:
        records = parse_trace(text)
    except AuditFormatError as exc:
        print(f"error: malformed trace: {exc}", file=err)
        return 2

    violations = []
    if args.scenario:
        scenario = _load_clean(args.scenario, out, err)
        if scenario is None:
            return 2
        if not records or records[0].kind != "run_started":
            print("error: trace has no run_started record", file=err)
            return 2
        head = records[0].decoded
        rerun = run_simulation(scenario, seed=head["seed"], horizon=head["horizon"])
        violations += check_trace(records, scenario=scenario, final_store=rerun.final_store)
        # Texts that differ may still hold the same lines, which is a match.
        if text != rerun.trace_text:
            lines, rerun_lines = text.splitlines(), rerun.trace_text.splitlines()
            if lines != rerun_lines:
                where = first_difference(lines, rerun_lines, "trace", "re-run")
                violations.append(
                    CheckViolation(
                        "determinism", 0, f"trace differs from deterministic re-run {where}"
                    )
                )
    else:
        violations += check_trace(records)

    for violation in violations:
        print(violation, file=out)
    if violations:
        return 1
    print(f"ok: {len(records)} records, all checks passed", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feac",
        description="Emergency-aware access control: validate, plan, simulate, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse a scenario and report diagnostics")
    p_validate.add_argument("scenario")
    p_validate.add_argument(
        "--print", action="store_true", help="print the canonical form when valid"
    )
    p_validate.set_defaults(func=cmd_validate)

    p_plan = sub.add_parser("plan", help="plan one group's response path statically")
    p_plan.add_argument("scenario")
    p_plan.add_argument("--group", required=True, help="entity whose emergencies to plan")
    p_plan.add_argument(
        "--at",
        type=parse_number,
        default=ZERO,
        help="elapsed minutes already spent before the group may start",
    )
    p_plan.add_argument("--locked", help="comma-separated resources to treat as unavailable")
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="run a scenario and emit its audit trace")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--seed", type=parse_integer, help="override the configured seed")
    p_sim.add_argument(
        "--until", type=parse_number, default=None, help="override the configured horizon"
    )
    p_sim.add_argument("--trace", help="write the trace to this file instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_audit = sub.add_parser("audit", help="verify an audit trace")
    p_audit.add_argument("trace")
    p_audit.add_argument(
        "--scenario",
        help="scenario file: enables replay fidelity, gating, and determinism checks",
    )
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args, out, err)


def entry() -> None:
    sys.exit(main())
