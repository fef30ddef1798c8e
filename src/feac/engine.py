"""Serialized emergency-response engine: detect, plan, staff, execute, audit.

The engine owns all mutation of the policy store and advances in fixed
ticks of `tp` minutes. Its clock is an int: a run has one `TimeUnit`
(`run_time_unit`), and the clock, event times, deadlines, grant windows
(`td`), completion times (`end`), plan epochs and gates are all whole counts
of its ticks. Fractions remain only at the edges: planner inputs and
outputs, `AclEntry.td` in the policy store, and the `now` that `acl_check`
gets. Each planner output is converted by `TimeUnit.ticks`, which raises
rather than round. Within a cycle it:

1. processes due timed occurrences (action completions, grant-window
   cutoffs, absolute deadlines) and due scenario events, interleaved in
   exact time order; successor actions chain at exact completion times so
   executed timelines match planned arithmetic. Occurrences come from a
   heap of `(ticks, class, eid)` entries with lazy deletion. Wherever an
   input of an active emergency's occurrence changes, `_push_occurrence`
   pushes a fresh entry and stores it on the emergency's `ActiveEmergency`;
   that stored object is its one current entry, and a head that is not it
   is stale and dropped;
2. reconciles the mode (normal <-> emergency; disaster is terminal);
3. (re)plans every group with new or changed work: a zero-value graph
   first triggers one entity substitution attempt, and then `select_path`
   picks the optimal path of a positive-value graph or the configured
   fallback heuristic's path of a zero-value one;
4. eagerly staffs every step of each live plan, one whose group has a
   step left to start or a last step running: subject selection via the role
   mapping hierarchy, timed permission grants, role alternation with the
   originals saved for restoration, notification. A grant lasts until
   td = max(now, now + Ed'): it never ends before it starts, although
   Ed' is below 0 when a `beta` above 1 shrinks a window past nothing.
   Only plans flagged `GroupPlan.unstaffed` are visited: a new plan, or
   one with a step that found no subject, which is retried every tick.
   Selection reads a run-scoped staffing index (`StaffingIndex`, on
   `SystemState.staffing`): the idle holders of each role in id order,
   per-role counts of active holders, and each property-only atom's truth
   per subject. The three writers of role sets refresh it for the subject
   they wrote: `enable_response_actions`, `rescind_permissions`, and
   `_run_fault_tolerance` after a substitution that copied roles;
5. starts the next action of each live plan whose environment gates are
   clear and whose resources no other group's running action holds. A plan
   left with no step to start is dropped here, so steps 4 and 5 walk one
   group order of the live plans.

A staffed step is one `Assignment`: its subject holds the emergency role
(named by the step's eid) and the step's permissions until `td`. A running
action is that same assignment, stamped with its `end` and filed under its
entity in `SystemState.executions`; the grant it runs under is the one it
was staffed with, so the step, subject and window are stored once. A
running action holds its task set's resources; a start reads them off
`executions`.

`SystemState.cfg` is the run's one `EngineConfig`: it decides the time
unit, seeds the outcome draws and the planner, and gives tp, the fallback
strategy and the horizon.

Everything that lasts as long as one raise lives on its `ActiveEmergency`
in `SystemState.active`: the deadline, the assignment while it is staffed,
and whether a `subject_unavailable` was logged since it was last staffed.
An emergency is retired (solved or expired) only after its assignment is
rescinded, and retiring drops the record, so an assignment never outlives
its emergency and a re-raise starts with a fresh record.

Every state change is appended to the audit log; nothing mutates the
store without a record.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from .audit import AuditLog
from .constraints import ConstraintExpr, CountCmp, atom_holds, count_holds, evaluate
from .exact import ZERO, TimeUnit, decimal_scale
from .fault import apply_fault_tolerance
from .model import (
    AclEntry,
    ENV_ENTITY,
    Emergency,
    Op,
    PolicyStore,
    RoleKind,
    Subject,
    acl_check,
)
from .planner import (
    InfluenceSpec,
    PlannerConfig,
    PlanPath,
    PlanStep,
    ResponseGraph,
    build_transition_graph,
    compute_p_value,
    prob_first_select,
    select_optimal_path,
    time_first_select,
)

MODE_NORMAL = "normal"
MODE_EMERGENCY = "emergency"
MODE_FAULT_TOLERANT = "fault_tolerant"
MODE_DISASTER = "disaster"

PROBABILITY_FIRST = "probability_first"
TIME_FIRST = "time_first"


class EngineError(RuntimeError):
    pass


@dataclass
class EngineConfig:
    tp: Fraction = Fraction(1, 2)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    fallback_strategy: str = PROBABILITY_FIRST
    # The run stops once its clock passes this time (see `sim.run_simulation`).
    horizon: Fraction = Fraction(20)

    def by_key(self) -> dict[str, Fraction | int | str]:
        """Each scenario `config` key's value, in canonical order: the one
        list of the keys, which the parser, printer and trace header read."""
        planner = self.planner
        return {
            "tp": self.tp,
            "alpha": planner.alpha,
            "beta": planner.beta,
            "k": planner.k_cap,
            "seed": planner.seed,
            "fallback": self.fallback_strategy,
            "horizon": self.horizon,
        }


@dataclass(frozen=True)
class ScenarioEvent:
    time: Fraction
    kind: str  # raise | fail | force | request
    args: tuple[str, ...]


@dataclass
class Assignment:
    """`sid` holds emergency role `step.eid` and the step's permissions until
    tick `td`, its own roles saved in ORT; `end` is set when the action starts.
    `until` is `td` as a Fraction, the object its ACL entries hold, so that
    rescinding finds them by identity."""

    step: PlanStep
    sid: str
    td: int
    until: Fraction
    end: int | None = None


# (ticks, class, eid); class 0 is a completion, 1 a grant cutoff and 2 a
# deadline, so at one time they run in that order.
Occurrence = tuple[int, int, str]


@dataclass
class ActiveEmergency:
    """One raise of an emergency, from the raise until it is retired.

    `assignment` is its staffing while it has one, and `unavailable_logged`
    records that its lack of a subject was reported since it was last
    staffed. `occurrence` is the occurrence-heap entry last pushed for it,
    the only one that is current. Retiring the emergency drops the record,
    so a re-raise starts with none of them.
    """

    emergency: Emergency
    deadline: int
    assignment: Assignment | None = None
    unavailable_logged: bool = False
    occurrence: Occurrence | None = None


@dataclass
class GroupPlan:
    steps: list[PlanStep]
    epoch: int
    gate_abs: int
    cursor: int = 0
    # Whether a step from the cursor on may have a live emergency with no
    # subject. Staffing clears it unless a step found none. Only a new plan
    # brings such a step: an emergency that loses its subject and stays
    # active, or is raised again, is replanned first.
    unstaffed: bool = True


def run_time_unit(
    cfg: EngineConfig,
    emergencies: dict[str, Emergency],
    events: list[ScenarioEvent],
    infl: InfluenceSpec,
) -> TimeUnit:
    """The run's time unit: one in which every time the engine meets is whole.

    Its scale is `exact.decimal_scale` of the least common multiple of:
    - the base B: the denominators of tp, of every event time and of every
      ed. The clock, raise times and deadlines are whole in 1/B, and so is
      the window E left to a member when its group is planned;
    - per emergency and task set: alpha's denominator times the task set's
      time's times each influencer's sigma_t denominator. Every t' is whole
      in it;
    - per emergency: B times beta's denominator times each influencer's
      sigma_ed denominator. Every Ed' is E times a factor whose denominator
      divides beta's times the sigma_ed ones, so it is whole in it.
    A product over all influencers stands in for any subset of them, as in
    `planner.Pricing`. Gates, grant windows, completion times and each
    `PlanStep.end_elapsed` are sums of these, so they are whole too.
    """
    alpha, beta = cfg.planner.alpha.denominator, cfg.planner.beta.denominator
    base = lcm(
        cfg.tp.denominator,
        *(ev.time.denominator for ev in events),
        *(em.ed.denominator for em in emergencies.values()),
    )
    influencers: dict[str, list] = {}
    for (_, influenced), pair in infl.pairs.items():
        influencers.setdefault(influenced, []).append(pair)
    scale = base
    for em in emergencies.values():
        pairs = influencers.get(em.eid, ())
        stretch = alpha * prod(pair.sigma_t.denominator for pair in pairs)
        shrink = base * beta * prod(pair.sigma_ed.denominator for pair in pairs)
        scale = lcm(scale, shrink, *(stretch * ts.time.denominator for ts in em.task_sets))
    return TimeUnit(decimal_scale(scale))


class SystemState:
    """Whole mutable world the engine advances: store plus run bookkeeping.

    `cfg` (default `EngineConfig()`) is the run's one configuration. It
    decides the time unit, and `cfg.planner.seed` seeds the outcome draws
    as it seeds the planner's sampling.
    """

    def __init__(
        self,
        store: PolicyStore,
        emergencies: dict[str, Emergency],
        events: list[ScenarioEvent],
        infl: InfluenceSpec,
        cfg: EngineConfig | None = None,
    ):
        self.cfg = cfg = cfg or EngineConfig()
        self.store = store
        self.emergencies = emergencies
        self.unit = unit = run_time_unit(cfg, emergencies, events, infl)
        # (ticks, event) pairs in time order. Stable: events at equal times
        # keep their order in `events`.
        self.events = sorted(((unit.ticks(ev.time), ev) for ev in events), key=lambda te: te[0])
        self.event_cursor = 0
        self.infl = infl
        self.clock = 0
        self.mode = MODE_NORMAL
        # Entities that failed or substitute for one (see `fault`).
        self.engaged: set[str] = set()
        self.active: dict[str, ActiveEmergency] = {}
        # Heap of `Occurrence` entries. Only the entry stored on an active
        # emergency's record is current; the rest are stale (see the module doc).
        self.occurrences: list[Occurrence] = []
        # Each group's plan while it has a step left to start, or while its
        # last step runs; `_try_start_group` drops a plan with neither.
        self.plans: dict[str, GroupPlan] = {}
        # The running assignment of each entity's group.
        self.executions: dict[str, Assignment] = {}
        self.staffing = StaffingIndex(store)
        self.audit = AuditLog(unit)
        self.rng = random.Random(cfg.planner.seed)
        self.forces: dict[tuple[str, str], str] = {}
        self.outcomes: dict[str, str] = {}
        self.dirty: set[str] = set()
        self.blocked: set[str] = set()
        self.ft_attempted: set[str] = set()

    def group_members(self, entity: str, include_executing: bool = True) -> list[Emergency]:
        running = None if include_executing else self.executions.get(entity)
        skip = None if running is None else running.step.eid
        return [
            ae.emergency
            for eid, ae in sorted(self.active.items())
            if ae.emergency.entity == entity and eid != skip
        ]


def _group_order(entities) -> list[str]:
    return sorted(entities, key=lambda e: (e != ENV_ENTITY, e))


# ---------------------------------------------------------------------------
# Subject selection
# ---------------------------------------------------------------------------


_NONE: frozenset = frozenset()


class StaffingIndex:
    """Run-scoped index of the live store's role sets, read by `select_subject`.

    - `idle[role]` holds, sorted, the ids of the subjects that may assume
      `role` (SRT) and hold no emergency role (ASRT); `idle[None]` holds
      every such subject. A busy subject is in no list.
    - `holders[role]` counts the ASRT entries that hold `role` active, so a
      `count(...)` atom needs no scan.
    - `static` holds each other atom's truth per (subject, atom), computed
      once: subject properties never change during a run.

    Role sets change only in `enable_response_actions`,
    `rescind_permissions` and a substitution in `_run_fault_tolerance`,
    and each of them calls `refresh` for the subject it wrote.
    """

    def __init__(self, store: PolicyStore):
        self.store = store
        self.emergency_roles = {r for r, kind in store.roles.items() if kind is RoleKind.EMERGENCY}
        self.idle: dict[str | None, list[str]] = {}
        self.listed: dict[str, frozenset[str | None]] = {}
        self.asrt: dict[str, frozenset[str]] = {}  # as last refreshed
        self.holders: Counter[str] = Counter()
        # (sid, id(atom)) -> (atom, truth); holding the atom keeps its id unique.
        self.static: dict[tuple[str, int], tuple[ConstraintExpr, bool]] = {}
        for sid in sorted(store.subjects.keys() | store.asrt.keys()):
            self.refresh(sid)

    def refresh(self, sid: str) -> None:
        """Bring `sid`'s list entries and holder counts up to date with the store."""
        store = self.store
        active = store.asrt.get(sid, _NONE)
        before = self.asrt.get(sid, _NONE)
        if active != before:
            holders = self.holders
            for role in before:
                holders[role] -= 1
            for role in active:
                holders[role] += 1
            self.asrt[sid] = frozenset(active)
        if sid not in store.subjects:
            return
        if not self.emergency_roles.isdisjoint(active):
            keys = _NONE
        else:
            keys = frozenset((None, *store.srt.get(sid, ())))
        listed = self.listed.get(sid, _NONE)
        if keys != listed:
            for key in listed - keys:
                ids = self.idle[key]
                del ids[bisect_left(ids, sid)]
            for key in keys - listed:
                insort(self.idle.setdefault(key, []), sid)
            self.listed[sid] = keys

    def atom(self, expr: ConstraintExpr, subject: Subject, store: PolicyStore) -> bool:
        """`constraints.atom_holds`, from the counts and the per-subject cache."""
        if isinstance(expr, CountCmp):
            return count_holds(expr, self.holders[expr.role])
        key = (subject.sid, id(expr))
        cached = self.static.get(key)
        if cached is None:
            cached = self.static[key] = (expr, atom_holds(expr, subject, store))
        return cached[1]


def select_subject(staffing: StaffingIndex, erole: str) -> str | None:
    """Walk the role-mapping hierarchy top-down, then the fallback constraint.

    Each RMT role is one level, checked against the mapping's constraint;
    the RCT constraint is a last level open to every subject. A candidate
    must hold the level's normal role among its assignable roles (if the
    level names one), hold no emergency-role right now, and satisfy the
    level's constraint. Subjects are tried in id order and the first
    eligible one is returned, so each level is staffed by its smallest
    eligible subject id.

    The candidates of a level are `staffing.idle[role]` (every idle subject
    for the RCT level), so the subjects visited are exactly those whose
    constraint is evaluated, and each `evaluate` call takes its atoms from
    `staffing.atom`. The index is current because every writer of role
    sets refreshes it (see `StaffingIndex`).
    """
    store = staffing.store
    mapping = store.rmt.get(erole)
    levels = [] if mapping is None else [(role, mapping.constraint) for role in mapping.roles]
    if erole in store.rct:
        levels.append((None, store.rct[erole]))
    for role, constraint in levels:
        for sid in staffing.idle.get(role, ()):
            if constraint is None or evaluate(
                constraint, store.subjects[sid], store, staffing.atom
            ):
                return sid
    return None


# ---------------------------------------------------------------------------
# Grants and rescission
# ---------------------------------------------------------------------------


def enable_response_actions(
    world: SystemState, step: PlanStep, sid: str, now: int
) -> Assignment:
    """Grant, alternate roles, notify: the enablement of one active emergency's step.

    Raises ValueError, before it writes anything, when `sid` already holds
    an emergency role: ORT keeps one saved role set per subject.
    """
    store = world.store
    if sid in store.ort:
        raise ValueError(f"{sid} already holds an emergency role")
    eid = step.eid  # also the emergency role
    td = max(now, now + world.unit.ticks(step.ed))
    saved = tuple(sorted(store.asrt.get(sid, set())))

    world.audit.append("role_assigned", now, sid=sid, erole=eid, eid=eid, saved=saved)
    store.ort[sid] = saved
    store.srt.setdefault(sid, set()).add(eid)
    store.asrt[sid] = {eid}
    world.staffing.refresh(sid)

    until = world.unit.value(td)
    for oid, op in step.ts.actions:
        store.objects[oid].acl.append(AclEntry(eid, op, until))
        world.audit.append(
            "permission_granted", now, erole=eid, oid=oid, op=op.value, td=td, eid=eid, sid=sid
        )

    world.audit.append("subject_notified", now, sid=sid, eid=eid, erole=eid)

    ae = world.active[eid]
    ae.assignment = Assignment(step, sid, td, until)
    ae.unavailable_logged = False
    _push_occurrence(world, ae)
    return ae.assignment


def rescind_permissions(world: SystemState, eid: str, now: int, reason: str) -> None:
    """Remove an active emergency's grants and restore its subject's saved roles.

    Idempotent: a call for an emergency with no assignment is a no-op and
    emits nothing.
    """
    ae = world.active[eid]
    assignment, ae.assignment = ae.assignment, None
    if assignment is None:
        return
    store = world.store
    sid, td = assignment.sid, assignment.td
    for oid, op in assignment.step.ts.actions:
        entry = AclEntry(eid, op, assignment.until)
        acl = store.objects[oid].acl
        if entry in acl:
            acl.remove(entry)
        world.audit.append(
            "permission_rescinded",
            now,
            erole=eid,
            oid=oid,
            op=op.value,
            td=td,
            reason=reason,
            eid=eid,
        )
    saved = store.ort.pop(sid)
    store.asrt[sid] = set(saved)
    store.srt.get(sid, set()).discard(eid)
    world.staffing.refresh(sid)
    world.audit.append("role_restored", now, sid=sid, erole=eid, restored=saved)
    _push_occurrence(world, ae)


# ---------------------------------------------------------------------------
# Fault tolerance and disaster
# ---------------------------------------------------------------------------


def _run_fault_tolerance(world: SystemState, entity: str, now: int, escalated: bool) -> bool:
    if escalated:
        world.audit.append("state_transition", now, from_=world.mode, to=MODE_FAULT_TOLERANT)
        world.mode = MODE_FAULT_TOLERANT
    world.ft_attempted.add(entity)
    members = world.group_members(entity)
    report = apply_fault_tolerance(world.store, world.engaged, entity, members)
    if report.outcome == "substituted":
        if report.roles_copied:
            world.staffing.refresh(report.substitute)
        world.audit.append(
            "ft_substitution",
            now,
            from_=entity,
            to=report.substitute,
            acl=report.acl_copied,
            roles=report.roles_copied,
            notified=report.notified,
        )
        if escalated:
            world.audit.append("state_transition", now, from_=world.mode, to=MODE_EMERGENCY)
            world.mode = MODE_EMERGENCY
        return True
    _declare_disaster(world, entity, now, report.reason)
    return False


def _declare_disaster(world: SystemState, entity: str, now: int, reason: str) -> None:
    # Disaster disables every service: all grants come back before the end.
    for eid, ae in sorted(world.active.items()):
        if ae.assignment is not None:
            rescind_permissions(world, eid, now, "disaster")
    world.executions.clear()
    world.audit.append("disaster", now, entity=entity, reason=reason)
    world.audit.append("state_transition", now, from_=world.mode, to=MODE_DISASTER)
    world.mode = MODE_DISASTER


# ---------------------------------------------------------------------------
# Execution lifecycle
# ---------------------------------------------------------------------------


def _release_locks(world: SystemState, running: Assignment) -> None:
    """`running` has left `executions`: a group blocked on a resource replans."""
    if running.step.ts.resources:
        world.dirty |= world.blocked
        world.blocked.clear()


def _gated_entities(store: PolicyStore, eid: str) -> list[str]:
    return sorted({entity for entity, gate in store.edt if gate == eid})


def _finish_execution(world: SystemState, running: Assignment, now: int) -> None:
    step, sid = running.step, running.sid
    eid, tsid = step.eid, step.ts.tsid
    ae = world.active[eid]
    entity = ae.emergency.entity
    del world.executions[entity]
    _release_locks(world, running)

    forced = world.forces.get((eid, tsid))
    if forced is not None:
        success = forced == "success"
    else:
        # r < p', exactly: the double r is the ratio n / d of two ints.
        n, d = world.rng.random().as_integer_ratio()
        success = n * step.p.denominator < step.p.numerator * d

    if not success:
        world.audit.append("action_failed", now, eid=eid, tsid=tsid, sid=sid, reason="draw_failed")
        if now >= ae.deadline:
            _expire(world, eid, now, "deadline")
        else:
            world.dirty.add(entity)
            _push_occurrence(world, ae)
        return

    world.audit.append("action_finished", now, eid=eid, tsid=tsid, sid=sid, outcome="success")
    rescind_permissions(world, eid, now, "solved")
    world.outcomes[eid] = "eliminated"
    del world.active[eid]

    if entity == ENV_ENTITY:
        for gated in _gated_entities(world.store, eid):
            if any(g in world.active for g in world.store.gates_for(gated)):
                continue
            plan = world.plans.get(gated)
            if plan is None:
                continue
            if plan.cursor == 0 and plan.gate_abs != now:
                # Gate opened off schedule; the delay must flow into a replan.
                world.dirty.add(gated)
                continue
            _try_start_group(world, gated, now)
    _try_start_group(world, entity, now)


def _abort_execution(world: SystemState, running: Assignment, now: int) -> None:
    """Grant window (td) ran out mid-action: cut it off and expire."""
    eid = running.step.eid
    entity = world.active[eid].emergency.entity
    del world.executions[entity]
    _release_locks(world, running)
    rescind_permissions(world, eid, now, "expired")
    world.audit.append(
        "action_failed", now, eid=eid, tsid=running.step.ts.tsid, sid=running.sid, reason="expired"
    )
    world.audit.append("emergency_expired", now, eid=eid, reason="window")
    world.outcomes[eid] = "expired"
    del world.active[eid]
    world.dirty.add(entity)


def _expire(world: SystemState, eid: str, now: int, reason: str) -> None:
    entity = world.active[eid].emergency.entity
    rescind_permissions(world, eid, now, "expired")
    world.audit.append("emergency_expired", now, eid=eid, reason=reason)
    world.outcomes[eid] = "expired"
    del world.active[eid]
    world.dirty.add(entity)


def _try_start_group(world: SystemState, entity: str, now: int) -> None:
    if world.mode != MODE_EMERGENCY:
        return
    plan = world.plans.get(entity)
    if plan is None or entity in world.executions:
        return
    while plan.cursor < len(plan.steps) and plan.steps[plan.cursor].eid not in world.active:
        plan.cursor += 1
    if plan.cursor >= len(plan.steps):
        del world.plans[entity]
        return
    if any(gate in world.active for gate in world.store.gates_for(entity)):
        return
    step = plan.steps[plan.cursor]
    ae = world.active[step.eid]
    assignment = ae.assignment
    if assignment is None:
        return
    resources = step.ts.resources
    # This entity runs nothing, so every running action is another group's.
    if resources and any(
        not resources.isdisjoint(running.step.ts.resources)
        for running in world.executions.values()
    ):
        world.blocked.add(entity)
        return
    assignment.end = now + world.unit.ticks(step.t)
    world.executions[entity] = assignment
    plan.cursor += 1
    _push_occurrence(world, ae)
    world.audit.append(
        "action_started",
        now,
        eid=step.eid,
        tsid=step.ts.tsid,
        sid=assignment.sid,
        start=now,
        end=assignment.end,
        resources=sorted(step.ts.resources),
    )


# ---------------------------------------------------------------------------
# Occurrence and event draining
# ---------------------------------------------------------------------------


def _occurrence_of(world: SystemState, ae: ActiveEmergency) -> Occurrence:
    """The active emergency's next timed occurrence."""
    eid = ae.emergency.eid
    # An emergency is running iff its entity's running assignment is its own.
    running = world.executions.get(ae.emergency.entity)
    if running is not None and running.step.eid == eid:
        if running.end <= running.td:
            time, klass = running.end, 0
        else:
            time, klass = running.td, 1
    elif ae.assignment is not None and ae.assignment.td < ae.deadline:
        time, klass = ae.assignment.td, 1
    else:
        time, klass = ae.deadline, 2
    return (time, klass, eid)


def _push_occurrence(world: SystemState, ae: ActiveEmergency) -> None:
    """Make a fresh entry `ae`'s current one; call it wherever an input of
    `_occurrence_of` changes for an emergency that stays active."""
    ae.occurrence = _occurrence_of(world, ae)
    heapq.heappush(world.occurrences, ae.occurrence)


def _next_occurrence(world: SystemState) -> Occurrence | None:
    heap = world.occurrences
    active = world.active
    while heap:
        head = heap[0]
        ae = active.get(head[2])
        if ae is not None and ae.occurrence is head:
            return head
        heapq.heappop(heap)
    return None


def _dispatch_occurrence(world: SystemState, occ: Occurrence) -> None:
    when, klass, eid = occ
    # `_next_occurrence` returns only current entries, so eid is active.
    running = world.executions.get(world.active[eid].emergency.entity)
    if running is not None and running.step.eid == eid:
        if klass == 0:
            _finish_execution(world, running, when)
        else:
            _abort_execution(world, running, when)
    else:
        _expire(world, eid, when, "window" if klass == 1 else "deadline")


def _dispatch_event(world: SystemState, ev: ScenarioEvent, now: int) -> None:
    """Process `ev`, whose time is tick `now`."""
    if ev.kind == "raise":
        eid = ev.args[0]
        em = world.emergencies[eid]
        world.audit.append(
            "emergency_raised", now, eid=eid, entity=em.entity, prio=em.prio, ed=em.ed
        )
        if eid not in world.active:
            ae = world.active[eid] = ActiveEmergency(em, deadline=now + world.unit.ticks(em.ed))
            world.outcomes[eid] = "unprocessed"
            world.dirty.add(em.entity)
            _push_occurrence(world, ae)
    elif ev.kind == "fail":
        entity = ev.args[0]
        world.audit.append("entity_failed", now, entity=entity)
        if entity not in world.engaged:
            _run_fault_tolerance(world, entity, now, escalated=False)
    elif ev.kind == "force":
        eid, tsid, outcome = ev.args
        world.audit.append("outcome_forced", now, eid=eid, tsid=tsid, outcome=outcome)
        world.forces[(eid, tsid)] = outcome
    elif ev.kind == "request":
        sid, oid, op_text = ev.args
        decision = acl_check(world.store, sid, oid, Op(op_text), world.unit.value(now))
        world.audit.append(
            "access_checked",
            now,
            sid=sid,
            oid=oid,
            op=op_text,
            decision="permit" if decision.permit else "deny",
            reason=decision.reason,
        )


def _drain_due(world: SystemState, until: int) -> None:
    """Process events and occurrences due by tick `until`, interleaved by
    time. An event goes before an occurrence at its time."""
    events = world.events
    while world.mode != MODE_DISASTER:
        cursor = world.event_cursor
        event_at, event = events[cursor] if cursor < len(events) else (None, None)
        if event_at is not None and event_at > until:
            event_at = None
        occurrence = _next_occurrence(world)
        if occurrence is not None and occurrence[0] > until:
            occurrence = None
        if event_at is not None and (occurrence is None or event_at <= occurrence[0]):
            world.event_cursor += 1
            _dispatch_event(world, event, event_at)
        elif occurrence is not None:
            _dispatch_occurrence(world, occurrence)
        else:
            return


# ---------------------------------------------------------------------------
# Mode reconciliation and planning
# ---------------------------------------------------------------------------


def _sync_mode(world: SystemState, now: int) -> None:
    if world.mode == MODE_DISASTER:
        return
    target = MODE_EMERGENCY if world.active else MODE_NORMAL
    if world.mode == target:
        return
    if target == MODE_NORMAL:
        world.plans.clear()
        world.dirty.clear()
        world.blocked.clear()
    world.audit.append("state_transition", now, from_=world.mode, to=target)
    world.mode = target


def _gate_release(world: SystemState, entity: str, now: int) -> int:
    latest = now
    for gate_eid in sorted(world.store.gates_for(entity)):
        ae = world.active.get(gate_eid)
        if ae is None:
            continue
        scheduled = None
        running = world.executions.get(ae.emergency.entity)
        if running is not None and running.step.eid == gate_eid:
            scheduled = running.end
        if scheduled is None:
            env_plan = world.plans.get(ENV_ENTITY)
            if env_plan is not None:
                for step in env_plan.steps[env_plan.cursor :]:
                    if step.eid == gate_eid:
                        scheduled = env_plan.epoch + world.unit.ticks(step.end_elapsed)
                        break
        if scheduled is None:
            # No schedule to read; assume the worst case inside the window.
            scheduled = ae.deadline
        if scheduled > latest:
            latest = scheduled
    return latest - now


def select_path(graph: ResponseGraph, pv: Fraction, fallback: str) -> tuple[PlanPath, str]:
    """PD-AGM's choice for a graph of value `pv`: (the optimal path,
    "optimal") when `pv` is positive, else (the path of the `fallback`
    strategy's selector, `fallback`)."""
    if pv > ZERO:
        return select_optimal_path(graph), "optimal"
    select = time_first_select if fallback == TIME_FIRST else prob_first_select
    return select(graph), fallback


def _plan_group(world: SystemState, entity: str, now: int) -> None:
    members = world.group_members(entity, include_executing=False)
    for member in members:
        if world.active[member.eid].assignment is not None:
            rescind_permissions(world, member.eid, now, "replaced")
    if not members:
        world.plans.pop(entity, None)
        return

    unit = world.unit
    remaining = [
        dataclasses.replace(member, ed=unit.value(world.active[member.eid].deadline - now))
        for member in members
    ]
    # Plans assume every resource frees up in time; actual contention
    # serializes at start time and forces a replan when a holder stops.
    gate_release = _gate_release(world, entity, now)
    running = world.executions.get(entity)
    if running is not None:
        gate_release = max(gate_release, running.end - now)
    graph = build_transition_graph(
        remaining,
        world.store.tdt,
        world.infl,
        world.cfg.planner,
        gate_release=unit.value(gate_release),
    )
    pv = compute_p_value(graph)
    # The one substitution attempt comes before selection, so a group that
    # ends in disaster computes no fallback path.
    if pv == ZERO and entity not in world.ft_attempted:
        if not _run_fault_tolerance(world, entity, now, escalated=True):
            return
    path, strategy = select_path(graph, pv, world.cfg.fallback_strategy)
    world.plans[entity] = GroupPlan(
        steps=list(path.steps),
        epoch=now,
        gate_abs=now + gate_release,
        cursor=0,
    )
    world.audit.append(
        "plan_selected",
        now,
        entity=entity,
        pv=pv,
        strategy=strategy,
        path=">".join(f"{s.eid}:{s.ts.tsid}" for s in path.steps),
        epoch=now,
        gate=gate_release,
    )


def _assign_pending(world: SystemState, entity: str, now: int) -> None:
    plan = world.plans[entity]
    plan.unstaffed = False
    for step in plan.steps[plan.cursor :]:
        ae = world.active.get(step.eid)
        if ae is None or ae.assignment is not None:
            continue
        erole = step.eid
        if world.store.roles.get(erole) is not RoleKind.EMERGENCY:
            sid = None
        else:
            sid = select_subject(world.staffing, erole)
        if sid is None:
            plan.unstaffed = True
            if not ae.unavailable_logged:
                world.audit.append("subject_unavailable", now, eid=step.eid, erole=erole)
                ae.unavailable_logged = True
            continue
        enable_response_actions(world, step, sid, now)


# ---------------------------------------------------------------------------
# The tick
# ---------------------------------------------------------------------------


def engine_tick(world: SystemState) -> int:
    """Run one engine cycle at the current clock, then advance it by the
    tp of `world.cfg`.

    Returns how many records the cycle appended (0 for an idle tick).
    Raises EngineError if called after disaster.
    """
    if world.mode == MODE_DISASTER:
        raise EngineError("engine is in disaster state")
    now = world.clock
    first_new = len(world.audit.lines)

    _drain_due(world, now)
    _sync_mode(world, now)
    if world.mode == MODE_EMERGENCY:
        for entity in _group_order(world.dirty):
            if world.mode != MODE_EMERGENCY:
                break
            _plan_group(world, entity, now)
        world.dirty.clear()
    if world.mode == MODE_EMERGENCY:
        # Neither pass adds a plan, and a start drops only the plan it visits.
        order = _group_order(world.plans)
        for entity in order:
            if world.plans[entity].unstaffed:
                _assign_pending(world, entity, now)
        for entity in order:
            _try_start_group(world, entity, now)

    world.clock = now + world.unit.ticks(world.cfg.tp)
    return len(world.audit.lines) - first_new
