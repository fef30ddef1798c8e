"""Serialized emergency-response engine: detect, plan, staff, execute, audit.

The engine owns all mutation of the policy store and advances in fixed
ticks of `tp` minutes. Within a tick it:

1. processes due timed occurrences (action completions, grant-window
   cutoffs, absolute deadlines) and due scenario events, interleaved in
   exact time order; successor actions chain at exact completion times so
   executed timelines match planned arithmetic;
2. reconciles the mode (normal <-> emergency; disaster is terminal);
3. (re)plans every group with new or changed work: positive-value plans
   are selected optimally, zero-value plans trigger one entity
   substitution attempt and then a fallback heuristic selection;
4. eagerly staffs every planned step: subject selection via the role
   mapping hierarchy, timed permission grants (td = now + Ed'), role
   alternation with the originals saved for restoration, notification;
5. starts the next action of each group whose environment gates are clear
   and whose resources are unlocked.

Every state change is appended to the audit log; nothing mutates the
store without a record.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .audit import AuditLog, encode_acl_entries
from .constraints import evaluate
from .exact import ZERO
from .fault import EntityHealth, HealthStatus, apply_fault_tolerance
from .model import AclEntry, ENV_ENTITY, Emergency, Op, PolicyStore, RoleKind, acl_check
from .planner import (
    InfluenceSpec,
    PlannerConfig,
    PlanStep,
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


@dataclass(frozen=True)
class ScenarioEvent:
    time: Fraction
    index: int
    kind: str  # raise | fail | force | request
    args: tuple[str, ...]


@dataclass
class ActiveEmergency:
    emergency: Emergency
    deadline: Fraction
    executing: bool = False


@dataclass
class Assignment:
    eid: str
    sid: str
    erole: str
    td: Fraction
    grants: list[tuple[str, Op, Fraction]]
    saved: tuple[str, ...]


@dataclass
class GroupPlan:
    steps: list[PlanStep]
    epoch: Fraction
    gate_abs: Fraction
    cursor: int = 0


@dataclass
class Execution:
    eid: str
    tsid: str
    sid: str
    end: Fraction
    td: Fraction
    p: Fraction
    resources: frozenset[str]


class SystemState:
    """Whole mutable world the engine advances: store plus run bookkeeping."""

    def __init__(
        self,
        store: PolicyStore,
        emergencies: dict[str, Emergency],
        events: list[ScenarioEvent],
        infl: InfluenceSpec,
        seed: int = 0,
    ):
        self.store = store
        self.initial_store = store.clone()
        self.emergencies = emergencies
        self.events = sorted(events, key=lambda ev: (ev.time, ev.index))
        self.event_cursor = 0
        self.infl = infl
        self.clock: Fraction = ZERO
        self.mode = MODE_NORMAL
        self.health: dict[str, EntityHealth] = {}
        self.active: dict[str, ActiveEmergency] = {}
        self.plans: dict[str, GroupPlan] = {}
        self.assignments: dict[str, Assignment] = {}
        self.executions: dict[str, Execution] = {}
        self.locks: dict[str, str] = {}
        self.audit = AuditLog()
        self.rng = random.Random(seed)
        self.forces: dict[tuple[str, str], tuple[Fraction, str]] = {}
        self.outcomes: dict[str, str] = {}
        self.dirty: set[str] = set()
        self.blocked: set[str] = set()
        self.ft_attempted: set[str] = set()
        self.unavailable_logged: set[str] = set()

    def group_members(self, entity: str, include_executing: bool = True) -> list[Emergency]:
        return [
            ae.emergency
            for eid, ae in sorted(self.active.items())
            if ae.emergency.entity == entity and (include_executing or not ae.executing)
        ]


def _group_order(entities) -> list[str]:
    return sorted(entities, key=lambda e: (e != ENV_ENTITY, e))


# ---------------------------------------------------------------------------
# Subject selection
# ---------------------------------------------------------------------------


def select_subject(store: PolicyStore, erole: str) -> str | None:
    """Walk the role-mapping hierarchy top-down, then the fallback constraint.

    A candidate must hold the level's normal role among its assignable
    roles, hold no emergency-role right now, and satisfy the mapping's
    constraint. Ties break on the smallest subject id.
    """
    emergency_roles = {r for r, kind in store.roles.items() if kind is RoleKind.EMERGENCY}

    def idle(sid: str) -> bool:
        return not (store.asrt.get(sid, set()) & emergency_roles)

    mapping = store.rmt.get(erole)
    if mapping is not None:
        for role in mapping.roles:
            candidates = sorted(
                sid
                for sid, subject in store.subjects.items()
                if role in store.srt.get(sid, set())
                and idle(sid)
                and (mapping.constraint is None or evaluate(mapping.constraint, subject, store))
            )
            if candidates:
                return candidates[0]
    fallback = store.rct.get(erole)
    if fallback is not None:
        candidates = sorted(
            sid
            for sid, subject in store.subjects.items()
            if idle(sid) and evaluate(fallback, subject, store)
        )
        if candidates:
            return candidates[0]
    return None


# ---------------------------------------------------------------------------
# Grants and rescission
# ---------------------------------------------------------------------------


def enable_response_actions(
    world: SystemState, step: PlanStep, sid: str, now: Fraction
) -> Assignment:
    """Grant, alternate roles, notify: the four-step enablement for one step."""
    store = world.store
    eid = step.eid
    erole = eid
    td = now + step.ed
    saved = tuple(sorted(store.asrt.get(sid, set())))
    grants: list[tuple[str, Op, Fraction]] = []

    world.audit.append("role_assigned", now, sid=sid, erole=erole, eid=eid, saved=saved)
    store.ort[sid] = saved
    store.srt.setdefault(sid, set()).add(erole)
    store.asrt[sid] = {erole}

    for oid, op in step.ts.actions:
        store.objects[oid].acl.append(AclEntry(erole, op, td))
        grants.append((oid, op, td))
        world.audit.append(
            "permission_granted", now, erole=erole, oid=oid, op=op.value, td=td, eid=eid, sid=sid
        )

    world.audit.append("subject_notified", now, sid=sid, eid=eid, erole=erole)

    assignment = Assignment(eid=eid, sid=sid, erole=erole, td=td, grants=grants, saved=saved)
    world.assignments[eid] = assignment
    world.unavailable_logged.discard(eid)
    return assignment


def rescind_permissions(world: SystemState, eid: str, now: Fraction, reason: str) -> None:
    """Remove an assignment's grants and restore the subject's saved roles.

    Idempotent: a second call for the same emergency is a no-op and emits
    nothing.
    """
    assignment = world.assignments.pop(eid, None)
    if assignment is None:
        return
    store = world.store
    for oid, op, td in assignment.grants:
        entry = AclEntry(assignment.erole, op, td)
        acl = store.objects[oid].acl
        if entry in acl:
            acl.remove(entry)
        world.audit.append(
            "permission_rescinded",
            now,
            erole=assignment.erole,
            oid=oid,
            op=op.value,
            td=td,
            reason=reason,
            eid=eid,
        )
    store.asrt[assignment.sid] = set(assignment.saved)
    store.srt.get(assignment.sid, set()).discard(assignment.erole)
    store.ort.pop(assignment.sid, None)
    world.audit.append(
        "role_restored",
        now,
        sid=assignment.sid,
        erole=assignment.erole,
        restored=assignment.saved,
    )
    world.unavailable_logged.discard(eid)


# ---------------------------------------------------------------------------
# Fault tolerance and disaster
# ---------------------------------------------------------------------------


def _run_fault_tolerance(
    world: SystemState, entity: str, now: Fraction, escalated: bool
) -> bool:
    if escalated:
        world.audit.append("state_transition", now, from_=world.mode, to=MODE_FAULT_TOLERANT)
        world.mode = MODE_FAULT_TOLERANT
    world.ft_attempted.add(entity)
    members = world.group_members(entity)
    report = apply_fault_tolerance(world.store, world.health, entity, members)
    if report.outcome == "substituted":
        world.audit.append(
            "ft_substitution",
            now,
            from_=entity,
            to=report.substitute,
            acl=encode_acl_entries(report.acl_copied),
            roles=report.roles_copied,
            notified=report.notified,
        )
        if escalated:
            world.audit.append("state_transition", now, from_=world.mode, to=MODE_EMERGENCY)
            world.mode = MODE_EMERGENCY
        return True
    _declare_disaster(world, entity, now, report.reason)
    return False


def _declare_disaster(world: SystemState, entity: str, now: Fraction, reason: str) -> None:
    # Disaster disables every service: all grants come back before the end.
    for eid in sorted(world.assignments):
        rescind_permissions(world, eid, now, "disaster")
    world.executions.clear()
    world.locks.clear()
    world.audit.append("disaster", now, entity=entity, reason=reason)
    world.audit.append("state_transition", now, from_=world.mode, to=MODE_DISASTER)
    world.mode = MODE_DISASTER


# ---------------------------------------------------------------------------
# Execution lifecycle
# ---------------------------------------------------------------------------


def _release_locks(world: SystemState, execution: Execution) -> None:
    for resource in execution.resources:
        if world.locks.get(resource) == execution.eid:
            del world.locks[resource]
    if execution.resources:
        world.dirty |= world.blocked
        world.blocked.clear()


def _gated_entities(store: PolicyStore, eid: str) -> list[str]:
    return sorted({entity for entity, gate in store.edt if gate == eid})


def _finish_execution(world: SystemState, execution: Execution, now: Fraction) -> None:
    eid = execution.eid
    ae = world.active[eid]
    entity = ae.emergency.entity
    del world.executions[entity]
    _release_locks(world, execution)

    forced = world.forces.get((eid, execution.tsid))
    if forced is not None and forced[0] <= now:
        success = forced[1] == "success"
    else:
        success = world.rng.random() < float(execution.p)

    if not success:
        world.audit.append(
            "action_failed", now, eid=eid, tsid=execution.tsid, sid=execution.sid,
            reason="draw_failed",
        )
        ae.executing = False
        if now >= ae.deadline:
            _expire(world, eid, now, "deadline")
        else:
            world.dirty.add(entity)
        return

    world.audit.append(
        "action_finished", now, eid=eid, tsid=execution.tsid, sid=execution.sid,
        outcome="success",
    )
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


def _abort_execution(world: SystemState, execution: Execution, now: Fraction) -> None:
    """Grant window (td) ran out mid-action: cut it off and expire."""
    eid = execution.eid
    entity = world.active[eid].emergency.entity
    del world.executions[entity]
    _release_locks(world, execution)
    rescind_permissions(world, eid, now, "expired")
    world.audit.append(
        "action_failed", now, eid=eid, tsid=execution.tsid, sid=execution.sid, reason="expired"
    )
    world.audit.append("emergency_expired", now, eid=eid, reason="window")
    world.outcomes[eid] = "expired"
    del world.active[eid]
    world.dirty.add(entity)


def _expire(world: SystemState, eid: str, now: Fraction, reason: str) -> None:
    entity = world.active[eid].emergency.entity
    rescind_permissions(world, eid, now, "expired")
    world.audit.append("emergency_expired", now, eid=eid, reason=reason)
    world.outcomes[eid] = "expired"
    del world.active[eid]
    world.dirty.add(entity)


def _try_start_group(world: SystemState, entity: str, now: Fraction) -> None:
    if world.mode != MODE_EMERGENCY:
        return
    plan = world.plans.get(entity)
    if plan is None or entity in world.executions:
        return
    while plan.cursor < len(plan.steps) and plan.steps[plan.cursor].eid not in world.active:
        plan.cursor += 1
    if plan.cursor >= len(plan.steps):
        return
    if any(gate in world.active for gate in world.store.gates_for(entity)):
        return
    step = plan.steps[plan.cursor]
    assignment = world.assignments.get(step.eid)
    if assignment is None:
        return
    conflicts = {
        r for r in step.ts.resources if world.locks.get(r) not in (None, step.eid)
    }
    if conflicts:
        world.blocked.add(entity)
        return
    for resource in step.ts.resources:
        world.locks[resource] = step.eid
    execution = Execution(
        eid=step.eid,
        tsid=step.ts.tsid,
        sid=assignment.sid,
        end=now + step.t,
        td=assignment.td,
        p=step.p,
        resources=step.ts.resources,
    )
    world.executions[entity] = execution
    world.active[step.eid].executing = True
    plan.cursor += 1
    world.audit.append(
        "action_started",
        now,
        eid=step.eid,
        tsid=step.ts.tsid,
        sid=assignment.sid,
        start=now,
        end=execution.end,
        resources=sorted(step.ts.resources),
    )


# ---------------------------------------------------------------------------
# Occurrence and event draining
# ---------------------------------------------------------------------------


def _next_occurrence(world: SystemState) -> tuple[Fraction, int, str] | None:
    best: tuple[Fraction, int, str] | None = None
    for execution in world.executions.values():
        if execution.end <= execution.td:
            candidate = (execution.end, 0, execution.eid)
        else:
            candidate = (execution.td, 1, execution.eid)
        if best is None or candidate < best:
            best = candidate
    for eid, ae in world.active.items():
        if ae.executing:
            continue
        assignment = world.assignments.get(eid)
        if assignment is not None and assignment.td < ae.deadline:
            candidate = (assignment.td, 1, eid)
        else:
            candidate = (ae.deadline, 2, eid)
        if best is None or candidate < best:
            best = candidate
    return best


def _dispatch_occurrence(world: SystemState, occ: tuple[Fraction, int, str]) -> None:
    when, klass, eid = occ
    ae = world.active.get(eid)
    if ae is None:
        return
    if ae.executing:
        execution = world.executions[ae.emergency.entity]
        if klass == 0:
            _finish_execution(world, execution, when)
        else:
            _abort_execution(world, execution, when)
    else:
        _expire(world, eid, when, "window" if klass == 1 else "deadline")


def _dispatch_event(world: SystemState, ev: ScenarioEvent) -> None:
    now = ev.time
    if ev.kind == "raise":
        eid = ev.args[0]
        em = world.emergencies[eid]
        world.audit.append(
            "emergency_raised", now, eid=eid, entity=em.entity, prio=em.prio, ed=em.ed
        )
        if eid not in world.active:
            world.active[eid] = ActiveEmergency(em, deadline=now + em.ed)
            world.outcomes[eid] = "unprocessed"
            world.dirty.add(em.entity)
    elif ev.kind == "fail":
        entity = ev.args[0]
        world.audit.append("entity_failed", now, entity=entity)
        status = world.health.get(entity)
        if status is None or status.status is HealthStatus.HEALTHY:
            _run_fault_tolerance(world, entity, now, escalated=False)
    elif ev.kind == "force":
        eid, tsid, outcome = ev.args
        world.audit.append("outcome_forced", now, eid=eid, tsid=tsid, outcome=outcome)
        world.forces[(eid, tsid)] = (now, outcome)
    elif ev.kind == "request":
        sid, oid, op_text = ev.args
        decision = acl_check(world.store, sid, oid, Op(op_text), now)
        world.audit.append(
            "access_checked",
            now,
            sid=sid,
            oid=oid,
            op=op_text,
            decision="permit" if decision.permit else "deny",
            reason=decision.reason,
        )


def _drain_due(world: SystemState, until: Fraction) -> None:
    """Process events and occurrences due by `until`, interleaved by time."""
    while world.mode != MODE_DISASTER:
        event = None
        if world.event_cursor < len(world.events):
            head = world.events[world.event_cursor]
            if head.time <= until:
                event = head
        occurrence = _next_occurrence(world)
        if occurrence is not None and occurrence[0] > until:
            occurrence = None
        if event is not None and (occurrence is None or event.time <= occurrence[0]):
            world.event_cursor += 1
            _dispatch_event(world, event)
        elif occurrence is not None:
            _dispatch_occurrence(world, occurrence)
        else:
            return


# ---------------------------------------------------------------------------
# Mode reconciliation and planning
# ---------------------------------------------------------------------------


def _sync_mode(world: SystemState, now: Fraction) -> None:
    if world.mode == MODE_DISASTER:
        return
    target = MODE_EMERGENCY if world.active else MODE_NORMAL
    if world.mode == target:
        return
    if target == MODE_NORMAL:
        # Transition sweep: per-emergency rescission normally leaves nothing.
        for eid in sorted(world.assignments):
            rescind_permissions(world, eid, now, "state_change")
        world.plans.clear()
        world.dirty.clear()
        world.blocked.clear()
    world.audit.append("state_transition", now, from_=world.mode, to=target)
    world.mode = target


def _gate_release(world: SystemState, entity: str, now: Fraction) -> Fraction:
    latest = now
    for gate_eid in sorted(world.store.gates_for(entity)):
        ae = world.active.get(gate_eid)
        if ae is None:
            continue
        scheduled = None
        if ae.executing:
            execution = world.executions.get(ae.emergency.entity)
            if execution is not None and execution.eid == gate_eid:
                scheduled = execution.end
        if scheduled is None:
            env_plan = world.plans.get(ENV_ENTITY)
            if env_plan is not None:
                for step in env_plan.steps[env_plan.cursor :]:
                    if step.eid == gate_eid:
                        scheduled = env_plan.epoch + step.end_elapsed
                        break
        if scheduled is None:
            # No schedule to read; assume the worst case inside the window.
            scheduled = ae.deadline
        if scheduled > latest:
            latest = scheduled
    return latest - now


def _plan_group(world: SystemState, cfg: EngineConfig, entity: str, now: Fraction) -> None:
    members = world.group_members(entity, include_executing=False)
    for member in members:
        if member.eid in world.assignments:
            rescind_permissions(world, member.eid, now, "replaced")
    if not members:
        world.plans.pop(entity, None)
        return

    remaining = [
        dataclasses.replace(member, ed=world.active[member.eid].deadline - now)
        for member in members
    ]
    # Plans assume every resource frees up in time; actual contention
    # serializes at start time and forces a replan when a lock releases.
    gate_release = _gate_release(world, entity, now)
    execution = world.executions.get(entity)
    if execution is not None:
        gate_release = max(gate_release, execution.end - now)
    graph = build_transition_graph(
        remaining,
        world.store.tdt,
        world.infl,
        cfg.planner,
        gate_release=gate_release,
    )
    pv = compute_p_value(graph)
    if pv > ZERO:
        path = select_optimal_path(graph)
        strategy = "optimal"
    else:
        if entity not in world.ft_attempted:
            if not _run_fault_tolerance(world, entity, now, escalated=True):
                return
        if cfg.fallback_strategy == TIME_FIRST:
            path = time_first_select(graph)
        else:
            path = prob_first_select(graph)
        strategy = cfg.fallback_strategy
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


def _assign_pending(world: SystemState, entity: str, now: Fraction) -> None:
    plan = world.plans.get(entity)
    if plan is None:
        return
    for step in plan.steps[plan.cursor :]:
        if step.eid not in world.active or step.eid in world.assignments:
            continue
        erole = step.eid
        if world.store.roles.get(erole) is not RoleKind.EMERGENCY:
            sid = None
        else:
            sid = select_subject(world.store, erole)
        if sid is None:
            if step.eid not in world.unavailable_logged:
                world.audit.append("subject_unavailable", now, eid=step.eid, erole=erole)
                world.unavailable_logged.add(step.eid)
            continue
        enable_response_actions(world, step, sid, now)


# ---------------------------------------------------------------------------
# The tick
# ---------------------------------------------------------------------------


def engine_tick(world: SystemState, cfg: EngineConfig):
    """Run one engine cycle at the current clock, then advance it by tp.

    Returns the records appended during the cycle. Raises EngineError if
    called after disaster.
    """
    if world.mode == MODE_DISASTER:
        raise EngineError("engine is in disaster state")
    now = world.clock
    first_new = len(world.audit.records)

    _drain_due(world, now)
    if world.mode != MODE_DISASTER:
        _sync_mode(world, now)
    if world.mode == MODE_EMERGENCY:
        for entity in _group_order(world.dirty):
            if world.mode != MODE_EMERGENCY:
                break
            world.dirty.discard(entity)
            _plan_group(world, cfg, entity, now)
        world.dirty.clear()
    if world.mode == MODE_EMERGENCY:
        for entity in _group_order(world.plans):
            _assign_pending(world, entity, now)
        for entity in _group_order(world.plans):
            _try_start_group(world, entity, now)

    world.clock = now + cfg.tp
    return world.audit.records[first_new:]
