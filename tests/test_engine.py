"""End-to-end engine behavior, pinned through small scripted scenarios.

Each scenario isolates one mechanism: staffing at plan time, retry after a
failed draw, resource serialization, entity substitution, zero-value
fallback, expiry. Assertions read the audit records the run produced.
"""

import ast
import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from feac import constraints, engine, exact, sim
from feac.audit import parse_trace
from feac.constraints import (
    CMP_OPS,
    MAX_DEPTH,
    And,
    Cmp,
    CountCmp,
    DistCmp,
    Lit,
    Not,
    Or,
    Ref,
    evaluate,
)
from feac.engine import (
    ActiveEmergency,
    EngineError,
    MODE_DISASTER,
    MODE_EMERGENCY,
    StaffingIndex,
    SystemState,
    enable_response_actions,
    engine_tick,
    rescind_permissions,
    run_time_unit,
    select_subject,
)
from feac.model import Emergency, PolicyStore, RoleKind, RoleMapping, Subject, TaskSet
from feac.planner import InfluenceSpec, PlanStep
from feac.scenario import load_scenario, parse_scenario
from feac.sim import run_simulation

from scenario_gen import generate_scenario_text
from test_fixtures import ROWS as FIXTURE_ROWS

F = Fraction

BASE = """\
scenario probe
config tp = 0.5
config k = 64
config seed = 1
config horizon = 40
"""

ONE_EMERGENCY = """\
entity P1
role R1
subject A1 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
"""


def run(body: str):
    sc, diags = parse_scenario(BASE + body)
    assert not diags, diags
    return run_simulation(sc)


def recs(trace, kind):
    return [r for r in parse_trace(trace.trace_text) if r.kind == kind]


def kinds_at(trace, ts):
    return [r.kind for r in parse_trace(trace.trace_text) if r.ts == ts]


class TestStaffing:
    def test_every_path_member_staffed_when_the_plan_lands(self):
        trace = run(
            """\
entity P1
role R1
role R2
subject A1 { roles = [R1] }
subject A2 { roles = [R2] }
object O1 { acl R1 use }
object O2 { acl R2 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
emergency E2 {
  entity P1
  prio 5
  ed 12
  ft true
  ts TS1 { actions = [O2 use], time = 1, prob = 0.8 }
}
map E1 -> [R1]
map E2 -> [R2]
at 0 raise E1
at 0 raise E2
at 0 force E1 TS1 success
at 0 force E2 TS1 success
"""
        )
        plan = recs(trace, "plan_selected")[0]
        assert plan.payload["path"] == "E1:TS1>E2:TS1"
        assert plan.payload["pv"] == "0.72"
        # Both emergencies are staffed at the planning tick, not when their
        # own action starts.
        assigned = recs(trace, "role_assigned")
        assert [(r.ts, r.payload["sid"], r.payload["erole"]) for r in assigned] == [
            (F(0), "A1", "E1"),
            (F(0), "A2", "E2"),
        ]
        granted = recs(trace, "permission_granted")
        assert [(r.payload["eid"], r.payload["td"]) for r in granted] == [
            ("E1", "10"),
            ("E2", "12"),
        ]
        notified = recs(trace, "subject_notified")
        assert {r.payload["sid"] for r in notified} == {"A1", "A2"}
        started = recs(trace, "action_started")
        assert [(r.payload["eid"], r.payload["start"], r.payload["end"]) for r in started] == [
            ("E1", "0", "2"),
            ("E2", "2", "3"),
        ]
        assert trace.final_mode == "normal"
        assert trace.outcomes == {"E1": "eliminated", "E2": "eliminated"}

    def test_unstaffable_emergency_expires_with_one_notice(self):
        trace = run(
            """\
entity P1
role R1
constraint near = dist(location, (0, 0)) <= 1
subject A1 { roles = [R1], location = (9, 9) }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 4
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1] where @near
at 0 raise E1
at 0 force E1 TS1 success
"""
        )
        unavailable = recs(trace, "subject_unavailable")
        assert len(unavailable) == 1
        assert unavailable[0].payload == {"eid": "E1", "erole": "E1"}
        assert not recs(trace, "permission_granted")
        assert not recs(trace, "action_started")
        expired = recs(trace, "emergency_expired")[0]
        assert (expired.ts, expired.payload["reason"]) == (F(4), "deadline")
        assert trace.outcomes == {"E1": "expired"}
        assert trace.final_mode == "normal"

    def test_unavailable_is_logged_again_after_staffing_is_replaced(self):
        # E2 finds A1 busy at 0, gets A1 at 1, fails its draw at 2 and is
        # replaced while E3 takes A1: a second notice, since it was staffed.
        trace = run(
            """\
entity P1
entity P2
role R1
subject A1 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 1
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 1, prob = 0.9 }
}
emergency E2 {
  entity P2
  prio 2
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 1, prob = 0.9 }
}
emergency E3 {
  entity P1
  prio 1
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 1, prob = 0.9 }
}
map E1 -> [R1]
map E2 -> [R1]
map E3 -> [R1]
at 0 raise E1
at 0 raise E2
at 0 force E1 TS1 success
at 0 force E2 TS1 failure
at 2 raise E3
at 2 force E3 TS1 success
at 3 force E2 TS1 success
"""
        )
        kinds = ("subject_unavailable", "role_assigned", "permission_rescinded")
        records = parse_trace(trace.trace_text)
        e2 = [r for r in records if r.kind in kinds and r.payload["eid"] == "E2"]
        assert [(r.ts, r.kind) for r in e2] == [
            (F(0), "subject_unavailable"),
            (F(1), "role_assigned"),
            (F(2), "permission_rescinded"),
            (F(2), "subject_unavailable"),
            (F(3), "role_assigned"),
            (F(4), "permission_rescinded"),
        ]
        assert [r.payload["reason"] for r in e2 if r.kind == "permission_rescinded"] == [
            "replaced",
            "solved",
        ]
        assert trace.outcomes == {"E1": "eliminated", "E2": "eliminated", "E3": "eliminated"}

    def test_constraint_only_staffing_covers_a_missing_role(self):
        trace = run(
            """\
entity P1
role R1
role R2
constraint near = dist(location, (0, 0)) <= 1
subject A1 { roles = [R2], location = (0, 0) }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
fallbackmap E1 where @near
at 0 raise E1
at 0 force E1 TS1 success
"""
        )
        assigned = recs(trace, "role_assigned")[0]
        # A1 does not hold R1; the constraint-based fallback admits it.
        assert assigned.payload == {"sid": "A1", "erole": "E1", "eid": "E1", "saved": "R2"}
        assert trace.outcomes == {"E1": "eliminated"}


NORMAL_ROLES = ("N1", "N2", "N3", "N4")
EMERGENCY_ROLES = ("X1", "X2", "X3")


def random_constraint(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        items = tuple(random_constraint(rng, depth + 1) for _ in range(rng.randint(2, 3)))
        return rng.choice((And, Or))(items)
    if depth < 2 and roll < 0.4:
        return Not(random_constraint(rng, depth + 1))
    pick = rng.randrange(6)
    if pick == 0:
        return Cmp("experience", rng.choice((">=", "<", "=", "!=")), Fraction(rng.randint(0, 5)))
    if pick == 1:
        return Cmp("ward", rng.choice(("=", "!=")), rng.choice(("icu", "er")))
    if pick == 2:
        point = (Fraction(rng.randint(0, 4)), Fraction(rng.randint(0, 4)))
        return DistCmp("location", point, rng.choice(("<=", ">")), Fraction(rng.randint(1, 4)))
    if pick == 3:
        role = rng.choice(NORMAL_ROLES + EMERGENCY_ROLES)
        return CountCmp(role, rng.choice(("<", ">=")), rng.randint(0, 3))
    if pick == 4:
        return Ref(rng.choice(("near", "senior", "missing")))
    return Lit(rng.random() < 0.7)


def random_staffing_store(rng: random.Random) -> PolicyStore:
    store = PolicyStore()
    store.roles = {r: RoleKind.NORMAL for r in NORMAL_ROLES}
    store.roles.update({r: RoleKind.EMERGENCY for r in EMERGENCY_ROLES})
    store.constraints = {
        "near": DistCmp("location", (Fraction(0), Fraction(0)), "<=", Fraction(3)),
        "senior": Cmp("experience", ">=", Fraction(3)),
    }
    for index in range(1, rng.randint(1, 14) + 1):
        sid = f"S{index}"
        props = {}
        if rng.random() < 0.8:
            props["experience"] = Fraction(rng.randint(0, 5))
        if rng.random() < 0.8:
            props["ward"] = rng.choice(("icu", "er"))
        if rng.random() < 0.8:
            props["location"] = (Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5)))
        store.subjects[sid] = Subject(sid, props)
        held = {r for r in NORMAL_ROLES if rng.random() < 0.4}
        store.srt[sid] = held
        # Sorted, so the draws do not follow the set's hash order.
        store.asrt[sid] = {r for r in sorted(held) if rng.random() < 0.5}
        if rng.random() < 0.25:
            # Already staffed: an emergency-role is active on this subject.
            erole = rng.choice(EMERGENCY_ROLES)
            store.srt[sid].add(erole)
            store.asrt[sid] = {erole}
    for erole in EMERGENCY_ROLES:
        if rng.random() < 0.7:
            levels = tuple(rng.sample(NORMAL_ROLES, rng.randint(1, 3)))
            constraint = random_constraint(rng) if rng.random() < 0.7 else None
            store.rmt[erole] = RoleMapping(levels, constraint)
        if rng.random() < 0.5:
            store.rct[erole] = random_constraint(rng)
    return store


def test_random_staffing_stores_do_not_depend_on_the_hash_seed():
    """A failing case number must rebuild the same store in a new process."""
    tests = Path(__file__).parent
    script = (
        "import random\n"
        "from feac.model import serialize_store\n"
        "from test_engine import random_staffing_store\n"
        "for case in range(50):\n"
        "    print(serialize_store(random_staffing_store(random.Random(70_000 + case))))\n"
    )
    path = os.pathsep.join((str(Path(engine.__file__).parents[1]), str(tests)))
    dumps = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert dumps[0].count("constraint senior ") == 50
    assert dumps[0] == dumps[1]


def reference_select(store: PolicyStore, erole: str):
    """Every eligible subject per level, sorted, first one."""
    emergency_roles = {r for r, kind in store.roles.items() if kind is RoleKind.EMERGENCY}

    def idle(sid):
        return not (store.asrt.get(sid, set()) & emergency_roles)

    levels = []
    mapping = store.rmt.get(erole)
    if mapping is not None:
        levels += [(role, mapping.constraint) for role in mapping.roles]
    if erole in store.rct:
        levels.append((None, store.rct[erole]))
    for role, constraint in levels:
        eligible = sorted(
            sid
            for sid, subject in store.subjects.items()
            if (role is None or role in store.srt.get(sid, set()))
            and idle(sid)
            and (constraint is None or evaluate(constraint, subject, store))
        )
        if eligible:
            return eligible[0]
    return None


def random_staffing_world(rng: random.Random) -> SystemState:
    """A world over a random staffing store whose subjects also form one
    function group, so a failed subject is substituted by a peer."""
    store = random_staffing_store(rng)
    store.efgt = {sid: "crew" for sid in store.subjects}
    return SystemState(store, {}, [], InfluenceSpec())


def random_write(world: SystemState, rng: random.Random) -> str:
    """One role-set write through the engine: enable, rescind or substitute."""
    store = world.store
    now = world.clock
    roll = rng.random()
    # A disaster rescinds every assignment but retires no emergency.
    staffed = sorted(eid for eid, ae in world.active.items() if ae.assignment is not None)
    if roll < 0.45:
        erole = rng.choice(EMERGENCY_ROLES)
        if erole in staffed:
            return "skipped"
        # ORT keeps one saved role set per subject, so only a subject that
        # holds no emergency role may be enabled, eligible or not.
        emergency = set(EMERGENCY_ROLES)
        idle = [sid for sid in sorted(store.subjects) if not store.asrt.get(sid, set()) & emergency]
        if not idle:
            return "skipped"
        sid = select_subject(world.staffing, erole) or rng.choice(idle)
        ts = TaskSet("T1", (), F(1), F(1))
        # The engine staffs only active emergencies; this one's entity is no
        # subject, so it joins no group a substitution reads.
        emergency = Emergency(erole, "ward", 1, F(5), False, (ts,))
        world.active[erole] = ActiveEmergency(emergency, deadline=now + world.unit.ticks(F(5)))
        enable_response_actions(world, PlanStep(erole, ts, F(1), F(1), F(5), F(1)), sid, now)
        return "enabled"
    if roll < 0.8:
        if not staffed:
            return "skipped"
        eid = rng.choice(staffed)
        rescind_permissions(world, eid, now, "solved")
        del world.active[eid]
        return "rescinded"
    entity = rng.choice(sorted(store.subjects))
    if entity in world.engaged:
        return "skipped"
    copied = sorted(store.asrt.get(entity, ()))
    if not engine._run_fault_tolerance(world, entity, now, escalated=False):
        return "disaster"
    return "substituted with roles" if copied else "substituted"


def test_enabling_a_subject_that_holds_an_emergency_role_is_refused():
    # ORT keeps one saved role set per subject; a second enablement would
    # overwrite it, and the second rescind would then find none.
    world = random_staffing_world(random.Random(5))
    sid = sorted(world.store.subjects)[0]
    ts = TaskSet("T1", (), F(1), F(1))
    for erole in EMERGENCY_ROLES[:2]:
        emergency = Emergency(erole, "ward", 1, F(5), False, (ts,))
        world.active[erole] = ActiveEmergency(emergency, world.unit.ticks(F(5)))
    first = PlanStep(EMERGENCY_ROLES[0], ts, F(1), F(1), F(5), F(1))
    enable_response_actions(world, first, sid, world.clock)
    before = (world.audit.to_text(), repr(world.store))
    second = PlanStep(EMERGENCY_ROLES[1], ts, F(1), F(1), F(5), F(1))
    with pytest.raises(ValueError, match="already holds an emergency role"):
        enable_response_actions(world, second, sid, world.clock)
    assert (world.audit.to_text(), repr(world.store)) == before
    assert world.active[EMERGENCY_ROLES[1]].assignment is None
    rescind_permissions(world, EMERGENCY_ROLES[0], world.clock, "solved")
    assert sid not in world.store.ort


def test_select_subject_matches_reference_on_random_stores():
    """The index answers as the full scan does, on fresh stores and after
    enable, rescind and substitution steps on the same index."""
    seen = Counter()
    for case in range(300):
        rng = random.Random(70_000 + case)
        world = random_staffing_world(rng)
        store = world.store
        for step in range(8):
            for erole in EMERGENCY_ROLES:
                want = reference_select(store, erole)
                assert select_subject(world.staffing, erole) == want, (case, step, erole)
                mapping = store.rmt.get(erole)
                if mapping is None:
                    seen["rct only" if erole in store.rct else "no mapping"] += 1
                else:
                    seen[f"{len(mapping.roles)} levels"] += 1
                seen["staffed" if want is not None else "unstaffed"] += 1
                busy = [sid for sid, roles in store.asrt.items() if roles & set(EMERGENCY_ROLES)]
                if want is not None and busy and min(busy) < want:
                    seen["passed over a busy subject"] += 1
            world.clock += 1
            seen[random_write(world, rng)] += 1
    # A substitution with no peer left is a disaster, which rescinds everything.
    assert seen.pop("disaster") > 0, seen
    assert min(seen.values()) >= 20, seen


def random_atom(rng: random.Random):
    """An atom whose property or literal may not fit: bool, number, str and
    coordinate values meet every literal kind, and count(...) reads normal
    and emergency roles."""
    pick = rng.randrange(5)
    op = rng.choice(CMP_OPS)
    prop = rng.choice(("experience", "ward", "senior", "location", "missing"))
    if pick == 0:
        return Lit(rng.random() < 0.5)
    if pick == 1:
        value = rng.choice((F(rng.randint(0, 5)), rng.choice(("icu", "er")), rng.random() < 0.5))
        return Cmp(prop, op, value)
    if pick == 2:
        point = (F(rng.randint(0, 4)), F(rng.randint(0, 4), rng.randint(1, 2)))
        return DistCmp(prop, point, op, F(rng.randint(0, 4)))
    if pick == 3:
        return CountCmp(rng.choice(NORMAL_ROLES + EMERGENCY_ROLES), op, rng.randint(0, 4))
    return Ref(rng.choice(EQUIVALENCE_REFS))


def random_expression(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 3 and roll < 0.35:
        items = tuple(random_expression(rng, depth + 1) for _ in range(rng.randint(1, 3)))
        return rng.choice((And, Or))(items)
    if depth < 3 and roll < 0.45:
        return Not(random_expression(rng, depth + 1))
    return random_atom(rng)


def ref_chain(prefix: str, length: int, end) -> dict:
    """`prefix0` -> `prefix1` -> ... -> `prefix<length>` = end."""
    refs = {f"{prefix}{i}": Ref(f"{prefix}{i + 1}") for i in range(length)}
    return {**refs, f"{prefix}{length}": end}


EQUIVALENCE_REFS = ("near", "cycle", "self", "missing", "fits0", "over0", "count_fits0")


def equivalence_store(rng: random.Random) -> PolicyStore:
    store = random_staffing_store(rng)
    store.constraints = {
        "near": DistCmp("location", (F(1), F(1)), "<=", F(2)),
        "cycle": And((Ref("cycle_back"), Lit(True))),
        "cycle_back": Or((Ref("cycle"), Cmp("ward", "=", "icu"))),
        "self": Or((Ref("self"), Cmp("experience", ">=", F(2)))),
        # Reached from the top level, the last link of `fits` sits exactly
        # at MAX_DEPTH and that of `over` one level past it.
        **ref_chain("fits", MAX_DEPTH - 1, Cmp("experience", "<", F(4))),
        **ref_chain("over", MAX_DEPTH, Cmp("experience", "<", F(4))),
        **ref_chain("count_fits", MAX_DEPTH - 1, CountCmp("N1", ">=", 1)),
    }
    for sid, subject in store.subjects.items():
        # Mismatched property kinds: a scalar where a coordinate belongs and back.
        if rng.random() < 0.2:
            subject.properties["location"] = rng.choice((F(2), "icu", True))
        if rng.random() < 0.2:
            subject.properties["experience"] = rng.choice(((F(1), F(1)), "3", False))
        if rng.random() < 0.3:
            subject.properties["senior"] = rng.random() < 0.5
    return store


def test_index_atoms_answer_as_evaluate_does():
    """`evaluate` with the index's atoms equals plain `evaluate` on random
    expressions and subjects, while role sets change under the index."""
    seen = Counter()
    for case in range(40):
        rng = random.Random(90_000 + case)
        store = equivalence_store(rng)
        index = StaffingIndex(store)
        subjects = [store.subjects[sid] for sid in sorted(store.subjects)]
        expressions = [random_expression(rng) for _ in range(12)]
        expressions += [Ref(name) for name in EQUIVALENCE_REFS]
        for _ in range(2):
            for expr in expressions:
                for subject in subjects:
                    want = evaluate(expr, subject, store)
                    assert evaluate(expr, subject, store, index.atom) == want, (case, expr)
                    seen[want] += 1
                    if isinstance(expr, Ref):
                        seen[(expr.name, want)] += 1
            # Role changes between rounds move every count(...) answer.
            for sid in rng.sample(sorted(store.subjects), min(3, len(subjects))):
                active = set(rng.sample(NORMAL_ROLES + EMERGENCY_ROLES, rng.randint(0, 2)))
                store.asrt[sid] = active
                store.srt[sid] = store.srt.get(sid, set()) | active
                index.refresh(sid)
    # Both answers came up, the chain that fits holds for someone, the one
    # past MAX_DEPTH and the missing reference never do.
    assert seen[True] > 500 and seen[False] > 500, seen
    assert seen[("fits0", True)] and seen[("count_fits0", True)], seen
    assert not (seen[("over0", True)] or seen[("missing", True)]), seen
    assert seen[("cycle", True)] and seen[("self", True)], seen


class TestRetry:
    RETRY = (
        ONE_EMERGENCY
        + """\
at 0 raise E1
at 0 force E1 TS1 failure
at 3 force E1 TS1 success
"""
    )

    def test_failed_draw_replans_and_retries(self):
        trace = run(self.RETRY)
        failed = recs(trace, "action_failed")[0]
        assert (failed.ts, failed.payload["reason"]) == (F(2), "draw_failed")
        plans = recs(trace, "plan_selected")
        assert [(p.ts, p.payload["epoch"]) for p in plans] == [(F(0), "0"), (F(2), "2")]
        # Replacement rescinds the stale grant, the retry issues a new one
        # with the same expiry: the window is anchored to the raise time.
        rescinded = recs(trace, "permission_rescinded")
        assert [(r.ts, r.payload["reason"], r.payload["td"]) for r in rescinded] == [
            (F(2), "replaced", "10"),
            (F(4), "solved", "10"),
        ]
        started = recs(trace, "action_started")
        assert [(r.payload["start"], r.payload["end"]) for r in started] == [("0", "2"), ("2", "4")]
        assert trace.outcomes == {"E1": "eliminated"}

    def test_forced_outcome_applies_from_its_event_time(self):
        # The success force lands at 3, mid-retry: the first attempt still
        # fails, the second finishes.
        trace = run(self.RETRY)
        assert [r.payload["outcome"] for r in recs(trace, "action_finished")] == ["success"]
        assert recs(trace, "action_finished")[0].ts == F(4)

    # With prob 1 an unforced draw always succeeds, so only a force that
    # applies can fail the action, which completes at 2.
    SURE = ONE_EMERGENCY.replace("prob = 0.9", "prob = 1") + "at 0 raise E1\n"

    def test_force_at_the_completion_time_applies(self):
        # At one time events go before occurrences, so the force is seen.
        trace = run(self.SURE + "at 2 force E1 TS1 failure\n")
        failed = recs(trace, "action_failed")[0]
        assert (failed.ts, failed.payload["reason"]) == (F(2), "draw_failed")
        assert recs(trace, "outcome_forced")[0].ts == F(2)

    def test_force_after_the_completion_does_not_apply(self):
        trace = run(self.SURE + "at 2.5 force E1 TS1 failure\n")
        assert [r.ts for r in recs(trace, "action_finished")] == [F(2)]
        assert recs(trace, "action_failed") == []
        assert recs(trace, "outcome_forced")[0].ts == F(5, 2)
        assert trace.outcomes == {"E1": "eliminated"}

    def test_re_raise_of_active_emergency_does_not_restart_it(self):
        trace = run(
            ONE_EMERGENCY
            + """\
at 0 raise E1
at 0 force E1 TS1 success
at 1 raise E1
"""
        )
        assert len(recs(trace, "emergency_raised")) == 2
        assert len(recs(trace, "plan_selected")) == 1
        assert len(recs(trace, "action_started")) == 1
        assert trace.outcomes == {"E1": "eliminated"}


class TestResourceLocks:
    def test_contended_resource_serializes_entities(self):
        trace = run(
            """\
entity P1
entity P2
role R1
subject A1 { roles = [R1] }
subject A2 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9, resources = [Q] }
}
emergency E2 {
  entity P2
  prio 5
  ed 12
  ft true
  ts TS1 { actions = [O1 use], time = 1, prob = 0.8, resources = [Q] }
}
map E1 -> [R1]
map E2 -> [R1]
at 0 raise E1
at 0 raise E2
at 0 force E1 TS1 success
at 0 force E2 TS1 success
"""
        )
        started = recs(trace, "action_started")
        assert [
            (r.payload["eid"], r.payload["start"], r.payload["end"], r.payload["resources"])
            for r in started
        ] == [("E1", "0", "2", "Q"), ("E2", "2", "3", "Q")]
        # The blocked entity replans when the lock frees, and the stale
        # staffing is replaced.
        p2_plans = recs(trace, "plan_selected")
        assert [(p.payload["entity"], p.payload["epoch"]) for p in p2_plans] == [
            ("P1", "0"),
            ("P2", "0"),
            ("P2", "2"),
        ]
        replaced = [r for r in recs(trace, "permission_rescinded") if r.payload["reason"] == "replaced"]
        assert [(r.ts, r.payload["eid"]) for r in replaced] == [(F(2), "E2")]
        assert trace.outcomes == {"E1": "eliminated", "E2": "eliminated"}


class TestFaultTolerance:
    def test_failed_entity_is_substituted_while_its_action_completes(self):
        trace = run(
            """\
entity P1
entity P2
role R1
subject A1 { roles = [R1] }
subject A2 { roles = [R1] }
object O1 { acl R1 use }
object P1 { acl R1 read }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
fgroup P1 = g
fgroup P2 = g
at 0 raise E1
at 0 force E1 TS1 success
at 1 fail P1
"""
        )
        sub = recs(trace, "ft_substitution")[0]
        assert sub.ts == F(1)
        assert sub.payload == {
            "from": "P1",
            "to": "P2",
            "acl": "R1:read:-",
            "roles": "-",
            "notified": "-",
        }
        # The substitute object materialized in the final store.
        assert "P2" in trace.final_store.objects
        # The in-flight response is not interrupted.
        finished = recs(trace, "action_finished")[0]
        assert (finished.ts, finished.payload["outcome"]) == (F(2), "success")
        assert trace.final_mode == "normal"
        assert trace.outcomes == {"E1": "eliminated"}

    def test_failure_without_tolerance_is_a_disaster(self):
        trace = run(
            """\
entity P1
role R1
subject A1 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
at 0 raise E1
at 0 force E1 TS1 success
at 1 fail P1
"""
        )
        assert recs(trace, "disaster")[0].payload == {"entity": "P1", "reason": "ft_infeasible"}
        rescinded = recs(trace, "permission_rescinded")[0]
        assert (rescinded.ts, rescinded.payload["reason"]) == (F(1), "disaster")
        transitions = [(r.payload["from"], r.payload["to"]) for r in recs(trace, "state_transition")]
        assert transitions[-1] == ("emergency", "disaster")
        assert trace.final_mode == "disaster"
        assert trace.outcomes == {"E1": "unprocessed"}


PV_ZERO = """\
role R1
subject A1 { roles = [R1] }
subject A2 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 4
  ft true
  ts TS1 { actions = [O1 use], time = 6, prob = 0.9 }
}
map E1 -> [R1]
at 0 raise E1
at 0 force E1 TS1 success
"""


class TestZeroValuePlans:
    def test_substitution_then_fallback_plan(self):
        trace = run("entity P1\nentity P2\nfgroup P1 = g\nfgroup P2 = g\n" + PV_ZERO)
        assert kinds_at(trace, F(0))[3:8] == [
            "state_transition",  # normal -> emergency
            "state_transition",  # emergency -> fault_tolerant
            "ft_substitution",
            "state_transition",  # fault_tolerant -> emergency
            "plan_selected",
        ]
        plan = recs(trace, "plan_selected")[0]
        assert plan.payload["strategy"] == "probability_first"
        assert plan.payload["pv"] == "0"
        assert plan.payload["path"] == "E1:TS1"
        # The attempt overruns the window and is cut off at the expiry.
        aborted = recs(trace, "action_failed")[0]
        assert (aborted.ts, aborted.payload["reason"]) == (F(4), "expired")
        assert recs(trace, "emergency_expired")[0].payload["reason"] == "window"
        assert [r.payload["reason"] for r in recs(trace, "permission_rescinded")] == ["expired"]
        assert trace.final_mode == "normal"
        assert trace.outcomes == {"E1": "expired"}

    def test_no_substitute_available_is_a_disaster(self):
        trace = run("entity P1\n" + PV_ZERO)
        assert recs(trace, "disaster")[0].payload == {"entity": "P1", "reason": "no_substitute"}
        transitions = [(r.payload["from"], r.payload["to"]) for r in recs(trace, "state_transition")]
        assert transitions == [
            ("normal", "emergency"),
            ("emergency", "fault_tolerant"),
            ("fault_tolerant", "disaster"),
        ]
        assert trace.final_mode == "disaster"
        assert trace.outcomes == {"E1": "unprocessed"}


class TestRequests:
    def test_requests_are_checked_against_the_live_store(self):
        trace = run(
            """\
entity P1
role R1
subject A1 { roles = [R1] }
subject A2 { roles = [] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
at 0 raise E1
at 0 force E1 TS1 success
at 1 request A1 O1 use
at 1 request A2 O1 use
at 5 request A1 O1 use
"""
        )
        checked = recs(trace, "access_checked")
        assert [(r.ts, r.payload["sid"], r.payload["decision"], r.payload["reason"]) for r in checked] == [
            (F(1), "A1", "permit", "permit"),
            (F(1), "A2", "deny", "no_active_role_entry"),
            (F(5), "A1", "permit", "permit"),
        ]


WINDOW_FACTOR = """\
config beta = 0.7
entity P1
role R1
subject A1 { roles = [R1] }
subject A2 { roles = [R1] }
subject A3 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 6
  ft false
  ts TS1 { actions = [O1 use], time = 1, prob = 1 }
}
emergency E2 {
  entity P1
  prio 2
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 1, prob = 1 }
}
emergency E3 {
  entity P1
  prio 1
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 2, prob = 1 }
}
map E1 -> [R1]
map E2 -> [R1]
map E3 -> [R1]
influence E2 -> E1 { sigma_ed = 0.5 }
at 0 raise E3
at 0 raise E1
at 0.5 raise E2
"""


class TestTimeUnit:
    def test_an_adjusted_window_is_whole_in_the_run_unit(self):
        """E1 is replanned at 0.5 with 5.5 of its window left, under E2's
        sigma_ed of 0.5 and beta 0.7: Ed' = 5.5 * 0.65 = 3.575. A unit of
        0.01 covers tp and beta * sigma_ed (1/20) but not their product
        with the window, so the unit takes the window's base times both."""
        sc, diags = parse_scenario(BASE + WINDOW_FACTOR)
        assert not diags
        assert run_time_unit(sc.config, sc.emergencies, sc.events, sc.infl).scale == 1000
        grants = recs(run(WINDOW_FACTOR), "permission_granted")
        assert (F(1, 2), "E1", "4.075") in [(r.ts, r.payload["eid"], r.payload["td"]) for r in grants]

    def test_a_non_decimal_time_makes_the_lcm_the_unit(self):
        """Through the library an event may fall at 1/3; the unit is then
        1/6, and the trace writes such times as p/q."""
        sc, diags = parse_scenario(BASE + ONE_EMERGENCY + "at 0 raise E1\n")
        assert not diags
        (event,) = sc.events
        sc = dataclasses.replace(sc, events=[dataclasses.replace(event, time=F(1, 3))])
        unit = run_time_unit(sc.config, sc.emergencies, sc.events, sc.infl)
        assert (unit.scale, unit.digits) == (6, None)
        trace = run_simulation(sc, horizon=F(22, 7))
        lines = trace.trace_text.splitlines()
        assert lines[1] == "2|1/3|emergency_raised|eid=E1,entity=P1,prio=2,ed=10"
        assert lines[5] == "6|0.5|permission_granted|erole=E1,oid=O1,op=use,td=31/3,eid=E1,sid=A1"
        assert (trace.final_mode, trace.final_clock, len(lines)) == ("normal", F(3), 12)

    def test_a_planner_output_that_is_not_whole_raises_before_any_write(self):
        world = random_staffing_world(random.Random(5))
        erole = EMERGENCY_ROLES[0]
        ts = TaskSet("T1", (), F(1), F(1))
        world.active[erole] = ActiveEmergency(Emergency(erole, "ward", 1, F(5), False, (ts,)), 50)
        step = PlanStep(erole, ts, F(1), F(1), F(1, 3), F(1))
        before = (world.audit.to_text(), repr(world.store))
        with pytest.raises(ValueError, match="not a whole number"):
            enable_response_actions(world, step, sorted(world.store.subjects)[0], world.clock)
        assert (world.audit.to_text(), repr(world.store)) == before


@pytest.mark.parametrize(
    "prob, draw, outcome",
    [("0.3", 0.3, "eliminated"), ("0.25", 0.25, "expired")],
)
def test_the_outcome_draw_compares_with_the_exact_probability(prob, draw, outcome):
    """A draw succeeds when it is below p' exactly. The double nearest 0.3
    is below 3/10, so it succeeds, which `draw < float(p')` would fail; a
    draw equal to p' fails every time, and the emergency expires."""
    body = ONE_EMERGENCY.replace("prob = 0.9", f"prob = {prob}") + "at 0 raise E1\n"
    sc, diags = parse_scenario(BASE + body)
    assert not diags
    world = SystemState(sc.store.clone(), sc.emergencies, sc.events, sc.infl, cfg=sc.config)
    world.rng = random.Random()
    world.rng.random = lambda: draw
    while world.clock <= world.unit.ticks(F(12)):
        engine_tick(world)
    assert world.outcomes == {"E1": outcome}
    assert ("draw_failed" in world.audit.to_text()) == (outcome == "expired")


def test_ticking_a_disaster_world_is_an_error():
    sc, diags = parse_scenario(
        BASE
        + """\
entity P1
role R1
subject A1 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
at 0 raise E1
at 1 fail P1
"""
    )
    assert not diags
    world = SystemState(sc.store.clone(), sc.emergencies, sc.events, sc.infl, cfg=sc.config)
    while world.mode != MODE_DISASTER:
        engine_tick(world)
    with pytest.raises(EngineError):
        engine_tick(world)


def reference_next_occurrence(world: SystemState):
    """The full scan the occurrence heap replaced: the least
    `(ticks, class, eid)` over every active emergency."""
    running = {assignment.step.eid: assignment for assignment in world.executions.values()}
    best = None
    for eid, ae in world.active.items():
        assignment = running.get(eid)
        if assignment is not None:
            if assignment.end <= assignment.td:
                candidate = (assignment.end, 0, eid)
            else:
                candidate = (assignment.td, 1, eid)
        elif ae.assignment is not None and ae.assignment.td < ae.deadline:
            candidate = (ae.assignment.td, 1, eid)
        else:
            candidate = (ae.deadline, 2, eid)
        if best is None or candidate < best:
            best = candidate
    return best


@pytest.fixture
def checked_occurrences(monkeypatch):
    """Every drain step asserts that the heap's answer equals the full scan,
    and that each active emergency's stored entry is still the one
    `_occurrence_of` computes now: every change of its inputs pushed. It
    also asserts that the clock, every heap entry and every event time hold
    only ints and strs: no Fraction reaches the drain.

    Counts the answers by occurrence class (None when nothing is pending).
    """
    seen = Counter()
    from_heap = engine._next_occurrence

    def checked(world):
        assert type(world.clock) is int
        assert all(type(t) is int for t, _ in world.events)
        for entry in world.occurrences:
            assert [type(part) for part in entry] == [int, int, str], entry
        for eid, ae in world.active.items():
            assert ae.occurrence == engine._occurrence_of(world, ae), (world.clock, eid)
        got = from_heap(world)
        want = reference_next_occurrence(world)
        assert got == want, (world.clock, got)
        seen[None if got is None else got[1]] += 1
        return got

    monkeypatch.setattr(engine, "_next_occurrence", checked)
    return seen


def test_occurrence_heap_matches_full_scan_on_the_hospital(
    hospital, hospital_run, checked_occurrences
):
    assert run_simulation(hospital).trace_text == hospital_run.trace_text
    assert checked_occurrences[0] > 0


def test_occurrence_heap_matches_full_scan_on_generated_runs(checked_occurrences):
    for seed in range(60):
        sc, diags = parse_scenario(generate_scenario_text(seed))
        assert not diags, (seed, diags)
        run_simulation(sc)
    # Completions, window cutoffs and deadlines all came up.
    assert min(checked_occurrences[klass] for klass in (0, 1, 2, None)) > 0, checked_occurrences


def test_occurrence_heap_matches_full_scan_up_to_disaster(checked_occurrences):
    trace = run(ONE_EMERGENCY + "at 0 raise E1\nat 1 fail P1\n")
    assert trace.final_mode == MODE_DISASTER
    assert checked_occurrences[0] > 0


def assert_index_current(staffing: StaffingIndex):
    """The index equals one built afresh from its store."""
    fresh = StaffingIndex(staffing.store)
    assert {k: v for k, v in staffing.idle.items() if v} == {
        k: v for k, v in fresh.idle.items() if v
    }
    assert +staffing.holders == +fresh.holders


def assert_plans_live(world: SystemState) -> int:
    """Each kept plan has a step left to start, or its group's action runs.
    Returns how many plans it checked."""
    for entity, plan in world.plans.items():
        left = [step.eid for step in plan.steps[plan.cursor :] if step.eid in world.active]
        assert left or entity in world.executions, (world.clock, entity, plan.cursor)
    return len(world.plans)


@pytest.fixture
def live_plans():
    """How many plans `checked_staffing`'s ticks checked with `assert_plans_live`."""
    return Counter()


@pytest.fixture
def checked_staffing(monkeypatch, live_plans):
    """Every `select_subject` call asserts that the index's answer equals
    `reference_select` on the live store, and every tick that the index
    equals a fresh one and, when it ends in emergency mode, that every plan
    is live (`assert_plans_live`; disaster keeps its plans and ends the
    run). Counts the answers by the subject chosen."""
    seen = Counter()
    indexed = engine.select_subject
    ticked = sim.engine_tick

    def checked(staffing, erole):
        got = indexed(staffing, erole)
        assert got == reference_select(staffing.store, erole), (erole, got)
        seen[got] += 1
        return got

    def checked_tick(world):
        appended = ticked(world)
        assert_index_current(world.staffing)
        if world.mode == MODE_EMERGENCY:
            live_plans["checked"] += assert_plans_live(world)
        return appended

    monkeypatch.setattr(engine, "select_subject", checked)
    monkeypatch.setattr(sim, "engine_tick", checked_tick)
    return seen


def test_staffing_index_matches_the_scan_on_the_hospital(
    hospital, hospital_run, checked_staffing, live_plans
):
    assert run_simulation(hospital).trace_text == hospital_run.trace_text
    assert sum(checked_staffing.values()) == 7
    assert live_plans["checked"] > 0


def test_staffing_index_matches_the_scan_on_generated_runs(checked_staffing, live_plans):
    for seed in range(60):
        sc, diags = parse_scenario(generate_scenario_text(seed))
        assert not diags, (seed, diags)
        run_simulation(sc)
    assert checked_staffing[None] > 0 and sum(checked_staffing.values()) > 200, checked_staffing
    assert live_plans["checked"] > 1000, live_plans


CREW_FAILOVER = Path(__file__).parent / "data" / "crew_failover.feac"


def test_staffing_index_follows_roles_copied_on_substitution(checked_staffing):
    sc, diags = load_scenario(str(CREW_FAILOVER))
    assert not diags
    trace = run_simulation(sc)
    (sub,) = recs(trace, "ft_substitution")
    assert (sub.ts, sub.payload["to"], sub.payload["roles"]) == (F(1), "S2", "E1")
    # S2 held E2 when it took over E1; the index saw both at every tick.
    assert [r.payload["sid"] for r in recs(trace, "role_assigned")][:2] == ["S1", "S2"]
    records = parse_trace(trace.trace_text)
    assert (trace.final_mode, trace.final_clock, len(records)) == ("normal", F(19, 2), 97)
    assert sum(checked_staffing.values()) == 7


def test_an_asrt_entry_of_no_subject_counts_but_is_never_a_candidate():
    # ASRT may name an id that is no subject: its active role counts for
    # `count(R)`, but the RCT level, open to every subject, never offers it.
    store = PolicyStore(
        subjects={"S1": Subject("S1")},
        roles={"R": RoleKind.NORMAL, "E1": RoleKind.EMERGENCY},
        asrt={"A": {"R"}},
        rct={"E1": CountCmp("R", ">=", 1)},
    )
    assert reference_select(store, "E1") == "S1"
    assert select_subject(StaffingIndex(store), "E1") == "S1"


COUNT_FLIP = """\
entity P1
role R1
constraint spare = count(R1) >= 2
subject A1 { roles = [R1] }
subject A2 { roles = [R1] }
subject A3 { roles = [R1] }
subject B1 { roles = [], on_call = true }
object O1 { acl R1 use }
"""


def test_staffing_index_follows_a_count_level_that_flips(checked_staffing):
    """`spare` holds while two R1 holders stay active: staffing E1 and E2
    takes it from true to false, so E3 falls back to the on-call B1 although
    A3 is idle; E4, raised after the first three finish, finds it true again."""
    emergencies = "".join(
        f"""\
emergency E{n} {{
  entity P1
  prio {n}
  ed 20
  ft true
  ts TS1 {{ actions = [O1 use], time = 1, prob = 0.9 }}
}}
map E{n} -> [R1] where @spare
fallbackmap E{n} where on_call = true
at {raised} raise E{n}
at 0 force E{n} TS1 success
"""
        for n, raised in ((1, 0), (2, 0), (3, 0), (4, 5))
    )
    trace = run(COUNT_FLIP + emergencies)
    assigned = [(r.ts, r.payload["eid"], r.payload["sid"]) for r in recs(trace, "role_assigned")]
    assert assigned == [
        (F(0), "E1", "A1"),
        (F(0), "E2", "A2"),
        (F(0), "E3", "B1"),
        (F(5), "E4", "A1"),
    ]
    assert trace.outcomes == {eid: "eliminated" for eid in ("E1", "E2", "E3", "E4")}
    assert checked_staffing == Counter({"A1": 2, "A2": 1, "B1": 1})


def test_staffing_visits_only_plans_with_a_step_to_staff(monkeypatch):
    """Over every committed fixture, each `_assign_pending` call finds a step
    from its plan's cursor on whose emergency is live and unstaffed, and each
    run still writes its committed trace."""
    assign = engine._assign_pending
    calls = []

    def checked(world, entity, now):
        plan = world.plans[entity]
        calls.append(any(
            step.eid in world.active and world.active[step.eid].assignment is None
            for step in plan.steps[plan.cursor :]
        ))
        assign(world, entity, now)

    monkeypatch.setattr(engine, "_assign_pending", checked)
    for name, path, trace, edit in FIXTURE_ROWS:
        text = path.read_text(encoding="utf-8")
        sc, diags = parse_scenario(text.replace(*edit) if edit else text, path.name)
        assert not diags, name
        assert run_simulation(sc).trace_text == trace.read_text(encoding="utf-8"), name
    assert len(calls) > 20 and all(calls), calls.count(False)


@pytest.mark.parametrize(
    "module, allowed",
    [(engine, []), (constraints, []), (exact, [])],
)
def test_engine_source_has_no_true_division_or_float(module, allowed):
    """Policy, staffing and clock arithmetic stays exact: no `/` and no
    `float`, the outcome draw included."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    floats = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                    floats.append((func.name, ast.unparse(node)))
    assert floats == allowed
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "float"]
    assert len(names) == len(allowed)
    for node in ast.walk(tree):
        assert not isinstance(getattr(node, "op", None), ast.Div), node.lineno
