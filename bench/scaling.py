"""Informational scaling report: how simulate and plan time grow with size.

    python3 bench/scaling.py [--seed 1]

Runs `ward_scale` at 25/75, 50/150, 100/300 and 200/600 entities/subjects
and `surge` (two sites) at equal-priority group sizes 4 to 7, once each.
For every point it prints `simulate_s` and `plan_s` (untraced) and
`planner.nodes` (from a separate traced pass), then the growth exponent
fitted by least squares on log-log axes. Not gated, and not part of the
repeated benchmark runs: single timings of this kind are only a shape.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from time import perf_counter

import gen
import run
import tracing


def _fit_exponent(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def measure_point(workload: str, seed: int, scale: gen.Scale) -> dict[str, float]:
    from feac import scenario, sim

    workdir = run.WORK / f"scaling-{workload}"
    try:
        (op,) = run.prepare(workload, seed, workdir, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sc, diags = scenario.parse_scenario(op.text, op.name)
    if diags:
        raise run.BenchError(f"{op.name}: {diags[0]}")
    start = perf_counter()
    sim.run_simulation(sc)
    mark = perf_counter()
    run.static_plan(sc)
    point = {"simulate_s": mark - start, "plan_s": perf_counter() - mark}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.simulate"):
            sim.run_simulation(sc)
        run.static_plan(sc)
    finally:
        tracer.remove()
    point["planner.nodes"] = tracing.layer_metrics(tracer)["planner.nodes"]
    return point


def report(workload: str, seed: int, points: list[tuple[int, str, gen.Scale]]) -> None:
    """One line per (size, label, scale) point, then the fitted exponents."""
    print(f"{workload}: {'size':>10s} {'simulate_s':>12s} {'plan_s':>10s} {'planner.nodes':>14s}")
    xs, sims, plans, nodes = [], [], [], []
    for size, label, scale in points:
        point = measure_point(workload, seed, scale)
        print(
            f"{'':{len(workload) + 1}s} {label:>10s} "
            f"{point['simulate_s']:12.4f} {point['plan_s']:10.4f} {point['planner.nodes']:14d}"
        )
        xs.append(size)
        sims.append(point["simulate_s"])
        plans.append(point["plan_s"])
        nodes.append(point["planner.nodes"])
    print(
        f"  growth exponent in size: simulate_s {_fit_exponent(xs, sims):.2f}, "
        f"plan_s {_fit_exponent(xs, plans):.2f}, planner.nodes {_fit_exponent(xs, nodes):.2f}"
    )
    print(f"  growth exponent of simulate_s in planner.nodes: {_fit_exponent(nodes, sims):.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Informational scaling report.")
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    try:
        run.load_program()
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ward = [
        (n, f"{n}/{3 * n}", gen.scaled("ward_scale", entities=n, requests=3 * n))
        for n in (25, 50, 100, 200)
    ]
    report("ward_scale", args.seed, ward)
    surge = [
        (g, f"group {g}", gen.scaled("surge", entities=2, group_size=g)) for g in (4, 5, 6, 7)
    ]
    report("surge", args.seed, surge)
    return 0


if __name__ == "__main__":
    sys.exit(main())
