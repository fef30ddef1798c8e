"""Scenario simulation driver: ticks the engine and packages the trace."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .engine import MODE_DISASTER, SystemState, engine_tick
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

    `seed` and `horizon` override the scenario's configured values; the seed
    drives both outcome draws and planner sampling. The horizon need not be
    a whole number of the run's ticks: it is only compared with the clock.
    """
    cfg = sc.config
    effective_seed = cfg.planner.seed if seed is None else seed
    effective_horizon = sc.horizon if horizon is None else horizon
    if effective_seed != cfg.planner.seed:
        cfg = dataclasses.replace(
            cfg, planner=dataclasses.replace(cfg.planner, seed=effective_seed)
        )

    world = SystemState(
        sc.store.clone(),
        sc.emergencies,
        sc.events,
        sc.infl,
        seed=effective_seed,
        cfg=cfg,
    )
    world.audit.append(
        "run_started",
        0,
        scenario=sc.name,
        seed=effective_seed,
        tp=cfg.tp,
        horizon=effective_horizon,
        alpha=cfg.planner.alpha,
        beta=cfg.planner.beta,
        k=cfg.planner.k_cap,
        fallback=cfg.fallback_strategy,
    )

    horizon_ticks = world.unit.floor(effective_horizon)
    while world.mode != MODE_DISASTER and world.clock <= horizon_ticks:
        engine_tick(world, cfg)
        quiescent = (
            world.mode == "normal"
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
