"""Store invariants of a running engine, and a run that records the store
after every tick.

`store_breaks(world)` checks the engine's own store against its run
bookkeeping. A live assignment is an active emergency's `assignment`, and
an emergency role is a role of kind `RoleKind.EMERGENCY`, named by its eid.
- I1: ORT has an entry for exactly the subjects with a live assignment.
- I2: a subject's emergency roles, in SRT and in ASRT, are exactly the eids
  of its live assignments.
- I3: the emergency-role ACL rows are the grants of the live assignments,
  as multisets: one `(oid, eid, op, until)` row per action of the step's
  task set, so a task set that lists an action twice is granted it twice.
- I4: every running action is its emergency's live assignment.

None of them reads the trace. `monitored_run(sc)` runs `run_simulation(sc)`
and records, after every tick, how many records the tick appended, the
`serialize_store` dump of the engine's store, and the first break of each
invariant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from unittest import mock

from feac import sim
from feac.engine import SystemState
from feac.model import RoleKind, serialize_store
from feac.scenario import Scenario

INVARIANTS = ("I1", "I2", "I3", "I4")


def store_breaks(world: SystemState) -> dict[str, str]:
    """Each invariant that `world.store` breaks, with what breaks it."""
    store = world.store
    live = [ae.assignment for ae in world.active.values() if ae.assignment is not None]
    emergency = {role for role, kind in store.roles.items() if kind is RoleKind.EMERGENCY}
    breaks: dict[str, str] = {}

    holders = sorted({a.sid for a in live})
    if sorted(store.ort) != holders:
        breaks["I1"] = f"ORT holds {sorted(store.ort)}, live assignments {holders}"

    for sid in sorted(store.subjects.keys() | store.srt.keys() | store.asrt.keys()):
        held = {a.step.eid for a in live if a.sid == sid}
        for table in ("srt", "asrt"):
            roles = getattr(store, table).get(sid, set()) & emergency
            if roles != held and "I2" not in breaks:
                breaks["I2"] = f"{sid} has {sorted(roles)} in {table}, live {sorted(held)}"

    rows = Counter(
        (obj.oid, entry.role, entry.op, entry.td)
        for obj in store.objects.values()
        for entry in obj.acl
        if entry.role in emergency
    )
    grants = Counter(
        (oid, a.step.eid, op, a.until) for a in live for oid, op in a.step.ts.actions
    )
    if rows != grants:
        extra, missing = sorted(rows - grants), sorted(grants - rows)
        breaks["I3"] = f"ACL rows not granted {extra}, grants not in an ACL {missing}"

    for entity, running in sorted(world.executions.items()):
        ae = world.active.get(running.step.eid)
        if ae is None or ae.assignment is not running or ae.emergency.entity != entity:
            breaks["I4"] = f"{entity} runs {running.step.eid}, not its live assignment"
            break
    return breaks


@dataclass
class MonitoredRun:
    trace_text: str
    # Per tick: the records it appended and the store dump after it.
    ticks: list[tuple[int, str]] = field(default_factory=list)
    # Each broken invariant's first break, with the time of its tick.
    breaks: dict[str, str] = field(default_factory=dict)


def monitored_run(sc: Scenario) -> MonitoredRun:
    """`run_simulation(sc)`, with the store dumped and checked after every tick."""
    run = MonitoredRun("")
    tick = sim.engine_tick

    def monitored_tick(world: SystemState) -> int:
        now = world.unit.text(world.clock)
        appended = tick(world)
        run.ticks.append((appended, serialize_store(world.store)))
        for name, message in store_breaks(world).items():
            run.breaks.setdefault(name, f"after the tick at {now}: {message}")
        return appended

    with mock.patch.object(sim, "engine_tick", monitored_tick):
        run.trace_text = sim.run_simulation(sc).trace_text
    return run
