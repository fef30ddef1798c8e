"""The store after every tick, on every row of `test_fixtures.ROWS` and on
sweep seeds 0-59.

- Replay, one tick at a time: applying each tick's records with
  `audit.apply`, in trace order, to a copy of the scenario's store rebuilds
  the engine's store after that tick. Replay fidelity compares only the
  final store; this gate says that nothing mutates the store without a
  record at any tick.
- The engine's store keeps invariants I1-I4 of `invariants.py` after every
  tick.

Each scenario runs once, through `invariants.monitored_run`.
"""

from functools import cache

import pytest

from feac.audit import apply, parse_trace
from feac.model import serialize_store
from feac.scenario import parse_scenario

from invariants import INVARIANTS, monitored_run
from scenario_gen import generate_scenario_text
from test_fixtures import ROWS

BY_NAME = {row[0]: row for row in ROWS}
SWEEP = range(60)


def row_text(name: str) -> str:
    _, scenario, _, edit = BY_NAME[name]
    text = scenario.read_text(encoding="utf-8")
    return text.replace(*edit) if edit else text


@cache
def monitored(name: str):
    """(scenario, run) of a `ROWS` name or a sweep seed."""
    text = generate_scenario_text(name) if isinstance(name, int) else row_text(name)
    sc, diags = parse_scenario(text)
    assert not diags, (name, diags)
    return sc, monitored_run(sc)


def replay_mismatch(name) -> str | None:
    """The first tick whose records, applied to the store the ticks before
    it left, do not give the engine's store after it; None if none."""
    sc, run = monitored(name)
    records = parse_trace(run.trace_text)
    assert records[0].kind == "run_started"
    store, at = sc.store.clone(), 1
    for number, (appended, dump) in enumerate(run.ticks, start=1):
        for record in records[at : at + appended]:
            apply(store, record)
        at += appended
        if serialize_store(store) != dump:
            return f"{name}: tick {number}, records up to {at}"
    assert at == len(records), name
    return None


@pytest.mark.parametrize("name", BY_NAME)
def test_each_tick_replays_to_its_store(name):
    assert replay_mismatch(name) is None
    # The run monitored is the pinned run.
    assert monitored(name)[1].trace_text == BY_NAME[name][2].read_text(encoding="utf-8")


def test_each_sweep_tick_replays_to_its_store():
    assert [replay_mismatch(seed) for seed in SWEEP] == [None] * len(SWEEP)


# Item 18 of ROADMAP.md: a subject substitution copies the failed subject's
# live emergency role, so S2 holds E1 and E2 at once, and E1 to the end.
OPEN = {("crew_failover", "I2"): "item 18: a substitute inherits a live emergency role"}
CASES = [
    pytest.param(
        name,
        invariant,
        marks=[pytest.mark.xfail(strict=True, reason=OPEN[name, invariant])]
        if (name, invariant) in OPEN
        else [],
    )
    for name in BY_NAME
    for invariant in INVARIANTS
]


@pytest.mark.parametrize("name, invariant", CASES)
def test_the_store_keeps_its_invariant_after_each_tick(name, invariant):
    assert monitored(name)[1].breaks.get(invariant) is None


@pytest.mark.parametrize("invariant", INVARIANTS)
def test_each_sweep_store_keeps_its_invariant_after_each_tick(invariant):
    breaks = {seed: monitored(seed)[1].breaks.get(invariant) for seed in SWEEP}
    assert {seed: text for seed, text in breaks.items() if text} == {}
