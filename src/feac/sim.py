"""Scenario simulation driver: ticks the engine and packages the trace."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .engine import MODE_DISASTER, MODE_NORMAL, SystemState, engine_tick
from .model import PolicyStore
from .scenario import Scenario


@dataclass
class SimTrace:
    """Everything a run produced: the trace, the final store, outcomes. The
    run leaves its scenario's store unchanged, so replay starts from there."""

    trace_text: str
    final_store: PolicyStore
    final_mode: str
    final_clock: Fraction
    outcomes: dict[str, str]


def run_simulation(
    sc: Scenario, seed: int | None = None, horizon: Fraction | None = None
) -> SimTrace:
    """Run `sc` to quiescence, disaster, or the horizon, whichever is first.

    `seed` and `horizon`, when given, replace `sc.config`'s `planner.seed`
    and `horizon`. The result is the run's one configuration: the
    `run_started` header is written from it, and its seed drives both the
    outcome draws and planner sampling. The horizon need not be a whole
    number of the run's ticks: it is only compared with the clock.
    """
    cfg = sc.config
    if seed is not None:
        cfg = dataclasses.replace(cfg, planner=dataclasses.replace(cfg.planner, seed=seed))
    if horizon is not None:
        cfg = dataclasses.replace(cfg, horizon=horizon)

    world = SystemState(sc.store.clone(), sc.emergencies, sc.events, sc.infl, cfg)
    world.audit.append("run_started", 0, scenario=sc.name, **cfg.by_key())

    horizon_ticks = world.unit.floor(cfg.horizon)
    while world.mode != MODE_DISASTER and world.clock <= horizon_ticks:
        engine_tick(world)
        quiescent = (
            world.mode == MODE_NORMAL
            and not world.active
            and world.event_cursor >= len(world.events)
        )
        if quiescent:
            break

    return SimTrace(
        trace_text=world.audit.to_text(),
        final_store=world.store,
        final_mode=world.mode,
        final_clock=world.unit.value(world.clock),
        outcomes=dict(world.outcomes),
    )
