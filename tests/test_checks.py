"""Trace checkers: each one must flag a synthesized bad trace and stay
quiet on the hospital run."""

import sys
import time
from fractions import Fraction

import pytest

from feac import audit, checks, cli, exact
from feac.audit import AuditLog, parse_trace
from feac.checks import (
    check_gating,
    check_grant_security,
    check_mode_correctness,
    check_replay_fidelity,
    check_rescission_liveness,
    check_resource_exclusivity,
    check_responsiveness,
    check_subject_exclusivity,
    check_trace,
)
from feac.constraints import Lit
from feac.model import serialize_store

from test_sim import GOLDEN

F = Fraction


def mk(*entries):
    """Build records from (kind, ts, payload) triples."""
    log = AuditLog()
    for kind, ts, payload in entries:
        log.append(kind, F(ts), **payload)
    return parse_trace(log.to_text())


HEADER = (
    "run_started",
    0,
    dict(scenario="t", seed=1, tp=F(1, 2), horizon=40, alpha=1, beta=1, k=64,
         fallback="probability_first"),
)


def test_hospital_run_is_clean(hospital, hospital_run):
    records = parse_trace(hospital_run.trace_text)
    violations = check_trace(records, scenario=hospital, final_store=hospital_run.final_store)
    assert violations == []


def test_checking_a_parsed_trace_decodes_nothing(hospital, hospital_run, monkeypatch):
    """Replay and the checkers read the values `parse_trace` decoded: with
    every number, Op and list decoder that audit, checks and cli reach made
    to raise, the golden trace still checks clean."""
    records = parse_trace(GOLDEN.read_text(encoding="utf-8"))
    calls = []

    def refuse(name):
        def decoder(*args):
            calls.append((name, args))
            raise AssertionError(f"{name}{args}: trace text decoded again")

        return decoder

    names = ("parse_number", "parse_trace_number", "parse_integer", "Op", "_parse_list",
             "_parse_acl")
    for module in (audit, checks, cli, exact):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    for key, codec in audit.FIELDS.items():
        if codec.decode:
            monkeypatch.setitem(audit.FIELDS, key, codec._replace(decode=refuse(key)))
    violations = check_trace(records, scenario=hospital, final_store=hospital_run.final_store)
    assert calls == []
    assert violations == []


class TestStructure:
    def test_empty_trace(self):
        violations = check_trace([])
        assert [v.check for v in violations] == ["structure"]

    def test_missing_header(self):
        records = mk(("entity_failed", 0, dict(entity="P1")))
        assert any(v.check == "structure" for v in check_trace(records))

    def test_violation_rendering(self):
        violations = check_trace([])
        assert str(violations[0]) == "structure at #0: empty trace"


class TestResponsiveness:
    def test_slow_staffing_is_flagged(self):
        records = mk(
            HEADER,
            ("emergency_raised", 0, dict(eid="E1", entity="P1", prio=1, ed=10)),
            ("role_assigned", 2, dict(sid="A1", erole="E1", eid="E1", saved="R1")),
        )
        violations = check_responsiveness(records)
        assert len(violations) == 1
        assert "E1 raised at 0 first handled at 2" in violations[0].message

    def test_staffing_within_one_tick_is_fine(self):
        records = mk(
            HEADER,
            ("emergency_raised", 0, dict(eid="E1", entity="P1", prio=1, ed=10)),
            ("role_assigned", F(1, 2), dict(sid="A1", erole="E1", eid="E1", saved="R1")),
        )
        assert check_responsiveness(records) == []

    def test_unavailability_notice_counts_as_handling(self):
        records = mk(
            HEADER,
            ("emergency_raised", 0, dict(eid="E1", entity="P1", prio=1, ed=10)),
            ("subject_unavailable", F(1, 2), dict(eid="E1", erole="E1")),
        )
        assert check_responsiveness(records) == []

    def test_never_handled_is_flagged_at_trace_end(self):
        records = mk(
            HEADER,
            ("emergency_raised", 0, dict(eid="E1", entity="P1", prio=1, ed=10)),
            ("access_checked", 5, dict(sid="A1", oid="O1", op="use", decision="deny",
                                       reason="no_active_role_entry")),
        )
        violations = check_responsiveness(records)
        assert len(violations) == 1
        assert "never handled" in violations[0].message

    def test_disaster_resolves_whatever_is_pending(self):
        records = mk(
            HEADER,
            ("emergency_raised", 0, dict(eid="E1", entity="P1", prio=1, ed=10)),
            ("disaster", 0, dict(entity="P1", reason="ft_infeasible")),
            ("state_transition", 0, dict(from_="normal", to="disaster")),
        )
        assert check_responsiveness(records) == []


class TestModeCorrectness:
    def test_illegal_transition(self):
        records = mk(HEADER, ("state_transition", 0, dict(from_="normal", to="fault_tolerant")))
        violations = check_mode_correctness(records)
        assert any("illegal transition" in v.message for v in violations)

    def test_transition_source_must_match_current_mode(self):
        records = mk(HEADER, ("state_transition", 0, dict(from_="emergency", to="normal")))
        violations = check_mode_correctness(records)
        assert any("but mode is normal" in v.message for v in violations)

    def test_staffing_outside_emergency_mode(self):
        records = mk(
            HEADER,
            ("role_assigned", 0, dict(sid="A1", erole="E1", eid="E1", saved="R1")),
        )
        violations = check_mode_correctness(records)
        assert any("role_assigned while mode is normal" in v.message for v in violations)

    def test_substitution_needs_a_failure_or_ft_mode(self):
        records = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("ft_substitution", 1, dict(from_="P1", to="P2", acl="-", roles="-", notified="-")),
        )
        violations = check_mode_correctness(records)
        assert any("substitution outside fault_tolerant mode" in v.message for v in violations)

    def test_proactive_substitution_must_be_followed_by_a_fallback_plan(self):
        records = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("state_transition", 0, dict(from_="emergency", to="fault_tolerant")),
            ("ft_substitution", 0, dict(from_="P1", to="P2", acl="-", roles="-", notified="-")),
            ("state_transition", 0, dict(from_="fault_tolerant", to="emergency")),
        )
        violations = check_mode_correctness(records)
        assert any("not followed by a fallback plan" in v.message for v in violations)

    def test_strategy_must_match_plan_value(self):
        bad_optimal = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("plan_selected", 0, dict(entity="P1", pv=0, strategy="optimal", path="E1:TS1",
                                      epoch=0, gate=0)),
        )
        assert any(
            "inconsistent with pv" in v.message for v in check_mode_correctness(bad_optimal)
        )
        bad_fallback = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("plan_selected", 0, dict(entity="P1", pv=F(1, 2), strategy="probability_first",
                                      path="E1:TS1", epoch=0, gate=0)),
        )
        assert any(
            "inconsistent with pv" in v.message for v in check_mode_correctness(bad_fallback)
        )


GRANT = dict(erole="E1", oid="O1", op="use", td=10, eid="E1", sid="A1")
RESCIND = dict(erole="E1", oid="O1", op="use", td=10, reason="solved", eid="E1")


class TestGrantSecurity:
    def test_open_grant_at_return_to_normal(self):
        records = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("permission_granted", 0, GRANT),
            ("state_transition", 4, dict(from_="emergency", to="normal")),
        )
        violations = check_grant_security(records)
        assert len(violations) == 1
        assert "still open entering normal" in violations[0].message

    def test_rescind_without_grant(self):
        records = mk(HEADER, ("permission_rescinded", 4, RESCIND))
        violations = check_grant_security(records)
        assert any("rescind without grant" in v.message for v in violations)

    def test_balanced_window_is_clean(self):
        records = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("permission_granted", 0, GRANT),
            ("permission_rescinded", 4, RESCIND),
            ("state_transition", 4, dict(from_="emergency", to="normal")),
        )
        assert check_grant_security(records) == []


class TestRescissionLiveness:
    def test_late_rescind(self):
        late = dict(RESCIND, reason="expired")
        records = mk(
            HEADER,
            ("permission_granted", 0, GRANT),
            ("permission_rescinded", 11, late),
        )
        violations = check_rescission_liveness(records)
        assert len(violations) == 1
        assert "after td+tp=21/2" in violations[0].message

    def test_rescind_at_the_boundary_is_fine(self):
        records = mk(
            HEADER,
            ("permission_granted", 0, GRANT),
            ("permission_rescinded", F(21, 2), dict(RESCIND, reason="expired")),
        )
        assert check_rescission_liveness(records) == []

    def test_grant_never_rescinded(self):
        records = mk(
            HEADER,
            ("permission_granted", 0, GRANT),
            ("entity_failed", 12, dict(entity="P1")),
        )
        violations = check_rescission_liveness(records)
        assert len(violations) == 1
        assert "never rescinded" in violations[0].message


class TestExclusivity:
    def test_subject_cannot_hold_two_emergency_roles(self):
        records = mk(
            HEADER,
            ("role_assigned", 0, dict(sid="A1", erole="E1", eid="E1", saved="R1")),
            ("role_assigned", 1, dict(sid="A1", erole="E2", eid="E2", saved="R1")),
        )
        violations = check_subject_exclusivity(records)
        assert len(violations) == 1
        assert "assigned E2 while holding E1" in violations[0].message

    def test_restore_while_idle(self):
        records = mk(HEADER, ("role_restored", 1, dict(sid="A1", erole="E1", restored="R1")))
        assert any("restored while idle" in v.message for v in check_subject_exclusivity(records))

    def test_release_then_reassign_is_clean(self):
        records = mk(
            HEADER,
            ("role_assigned", 0, dict(sid="A1", erole="E1", eid="E1", saved="R1")),
            ("role_restored", 2, dict(sid="A1", erole="E1", restored="R1")),
            ("role_assigned", 2, dict(sid="A1", erole="E2", eid="E2", saved="R1")),
        )
        assert check_subject_exclusivity(records) == []

    def test_role_kept_past_the_return_to_normal(self):
        records = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("role_assigned", 0, dict(sid="B2", erole="E2", eid="E2", saved="R1")),
            ("role_assigned", 0, dict(sid="A1", erole="E1", eid="E1", saved="R1")),
            ("role_assigned", 0, dict(sid="C3", erole="E3", eid="E3", saved="R1")),
            ("role_restored", 2, dict(sid="C3", erole="E3", restored="R1")),
            ("state_transition", 3, dict(from_="emergency", to="normal")),
        )
        assert [str(v) for v in check_subject_exclusivity(records)] == [
            "subject_exclusivity at #7: A1 still holds E1 entering normal",
            "subject_exclusivity at #7: B2 still holds E2 entering normal",
        ]

    def test_role_kept_into_disaster(self):
        records = mk(
            HEADER,
            ("state_transition", 0, dict(from_="normal", to="emergency")),
            ("role_assigned", 0, dict(sid="A1", erole="E1", eid="E1", saved="R1")),
            ("state_transition", 1, dict(from_="emergency", to="fault_tolerant")),
            ("state_transition", 1, dict(from_="fault_tolerant", to="disaster")),
        )
        assert [str(v) for v in check_subject_exclusivity(records)] == [
            "subject_exclusivity at #5: A1 still holds E1 entering disaster",
        ]

    def test_resource_conflict(self):
        start = dict(tsid="TS1", sid="A1", start=0, end=2)
        records = mk(
            HEADER,
            ("action_started", 0, dict(start, eid="E1", resources="Q")),
            ("action_started", 1, dict(start, eid="E2", resources=["P", "Q"])),
        )
        violations = check_resource_exclusivity(records)
        assert len(violations) == 1
        assert "E2 started using Q already held by E1" in violations[0].message

    def test_resource_reuse_after_release_is_clean(self):
        records = mk(
            HEADER,
            ("action_started", 0, dict(eid="E1", tsid="TS1", sid="A1", start=0, end=2,
                                       resources="Q")),
            ("action_finished", 2, dict(eid="E1", tsid="TS1", sid="A1", outcome="success")),
            ("action_started", 2, dict(eid="E2", tsid="TS1", sid="A2", start=2, end=3,
                                       resources="Q")),
        )
        assert check_resource_exclusivity(records) == []


class TestGating:
    def test_start_under_an_open_gate(self, hospital):
        records = mk(
            HEADER,
            ("emergency_raised", 0, dict(eid="E1", entity="env", prio=3, ed=20)),
            ("emergency_raised", 0, dict(eid="E3", entity="P1", prio=6, ed=8)),
            ("action_started", 0, dict(eid="E3", tsid="TS1", sid="S3", start=0, end=1,
                                       resources="-")),
        )
        violations = check_gating(records, hospital)
        assert len(violations) == 1
        assert "E3 started while gates ['E1'] are open" in violations[0].message

    def test_start_after_the_gate_clears(self, hospital):
        records = mk(
            HEADER,
            ("emergency_raised", 0, dict(eid="E1", entity="env", prio=3, ed=20)),
            ("emergency_raised", 0, dict(eid="E3", entity="P1", prio=6, ed=8)),
            ("action_finished", 3, dict(eid="E1", tsid="TS1", sid="S1", outcome="success")),
            ("action_started", 3, dict(eid="E3", tsid="TS1", sid="S3", start=3, end=4,
                                       resources="-")),
        )
        assert check_gating(records, hospital) == []


class TestReplayFidelity:
    def test_dropped_rescind_is_detected(self, hospital, hospital_run):
        dropped = [
            r for r in parse_trace(hospital_run.trace_text)
            if not (r.kind == "permission_rescinded" and r.seq == 56)
        ]
        violations = check_replay_fidelity(dropped, hospital.store, hospital_run.final_store)
        assert len(violations) == 1
        assert violations[0].check == "replay_fidelity"
        assert "stores differ" in violations[0].message

    def test_a_longer_store_names_its_first_extra_line(self, hospital, hospital_run):
        # The constraints come last in the dump, so one more only appends a line.
        actual = hospital_run.final_store.clone()
        actual.constraints["zz"] = Lit(True)
        count = len(serialize_store(hospital_run.final_store).splitlines())
        records = parse_trace(hospital_run.trace_text)
        violations = check_replay_fidelity(records, hospital.store, actual)
        assert [v.message for v in violations] == [
            f"stores differ at line {count + 1}: the replayed store is shorter "
            f"({count} lines), actual store has 'constraint zz true'"
        ]

    def test_intact_trace_replays_exactly(self, hospital, hospital_run):
        records = parse_trace(hospital_run.trace_text)
        assert check_replay_fidelity(records, hospital.store, hospital_run.final_store) == []


def test_tampered_grant_window_is_caught(hospital, hospital_run):
    # Stretch one grant's expiry in the serialized trace; the books no
    # longer balance.
    tampered_text = hospital_run.trace_text.replace(
        "permission_granted|erole=E3,oid=P1HealthData,op=read_write,td=8",
        "permission_granted|erole=E3,oid=P1HealthData,op=read_write,td=80",
        1,
    )
    assert tampered_text != hospital_run.trace_text
    records = parse_trace(tampered_text)
    violations = check_trace(records, scenario=hospital)
    assert violations
    assert all(v.check in ("grant_security", "rescission_liveness") for v in violations)


def crafted_trace(n: int) -> str:
    """The golden trace's header, then n of each shape that once cost a
    checker a rescan per record: substitutions at one time that no plan
    follows, normal -> emergency -> normal round trips with one grant each,
    and starts followed by failures of other emergencies. CI builds the same
    trace with awk."""
    lines = [GOLDEN.read_text(encoding="utf-8").splitlines()[0]]

    def add(ts, kind, payload):
        lines.append(f"{len(lines) + 1}|{ts}|{kind}|{payload}")

    for i in range(1, n + 1):
        add(0, "ft_substitution", f"from=P{i},to=Q{i},acl=-,roles=-,notified=-")
    for i in range(1, n + 1):
        add(i, "state_transition", "from=normal,to=emergency")
        add(i, "permission_granted", f"erole=E,oid=O,op=read,td={i},eid=E,sid=S")
        add(i, "permission_rescinded", f"erole=E,oid=O,op=read,td={i},reason=solved,eid=E")
        add(i, "state_transition", "from=emergency,to=normal")
    add(n, "state_transition", "from=normal,to=emergency")
    for i in range(1, n + 1):
        add(n, "action_started", f"eid=A{i},tsid=T,sid=S,start={n},end={n + 1},resources=R{i}")
    for i in range(1, n + 1):
        add(n, "action_failed", f"eid=B{i},tsid=T,sid=S,reason=x")
    return "\n".join(lines) + "\n"


def lines_run(checker, records) -> int:
    """How many lines of checks.py `checker` runs on `records`, each turn of
    a loop or comprehension counted again."""
    count = 0

    def in_frame(frame, event, arg):
        nonlocal count
        count += event == "line"
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code.co_filename == checks.__file__ else None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        checker(records)
    finally:
        sys.settrace(before)
    return count


@pytest.mark.parametrize(
    "checker",
    [
        check_responsiveness,
        check_mode_correctness,
        check_grant_security,
        check_rescission_liveness,
        check_subject_exclusivity,
        check_resource_exclusivity,
    ],
    ids=lambda checker: checker.__name__,
)
def test_checker_work_is_linear_on_crafted_traces(checker):
    small, large = (parse_trace(crafted_trace(n)) for n in (50, 200))
    # Four times the records may cost four times the lines; a rescan of the
    # trace or of closed state per record would cost sixteen.
    assert lines_run(checker, large) <= 4 * lines_run(checker, small)


def grant_drain_records(n: int, one_key: bool) -> list[audit.AuditRecord]:
    """The golden header, n grants, then n rescinds of them in order: all
    of one (erole, oid, op, td) key when `one_key`, else of n distinct
    keys. Records copy a parsed grant and rescind, only oid and seq told
    apart, which is quicker than parsing 200,000 lines."""
    header = GOLDEN.read_text(encoding="utf-8").splitlines()[0]
    template = parse_trace(
        f"{header}\n"
        "2|0|state_transition|from=normal,to=emergency\n"
        "3|0|permission_granted|erole=E,oid=O,op=read,td=5,eid=E,sid=S\n"
        "4|1|permission_rescinded|erole=E,oid=O,op=read,td=5,reason=solved,eid=E\n"
        "5|1|state_transition|from=emergency,to=normal\n"
    )
    records = template[:2]
    for rec in template[2:4]:
        for i in range(n):
            payload = dict(rec.payload, oid="O" if one_key else f"O{i}")
            records.append(audit.AuditRecord(len(records) + 1, rec.ts, rec.kind, payload, rec.decoded))
    closing = template[4]
    records.append(
        audit.AuditRecord(len(records) + 1, closing.ts, closing.kind, closing.payload, closing.decoded)
    )
    return records


def test_one_key_opened_many_times_drains_in_linear_time():
    # Every record does the same work in both traces but for the shape of
    # its key's queue; a drain that moves the rest of the queue per rescind
    # is quadratic and took two to three times as long on one key.
    spent = {}
    for one_key in (True, False):
        records = grant_drain_records(100_000, one_key)
        start = time.perf_counter()
        violations = check_grant_security(records) + check_rescission_liveness(records)
        spent[one_key] = time.perf_counter() - start
        assert violations == []
    assert spent[True] <= spent[False], spent


def test_crafted_trace_breaks_only_the_substitution_rule():
    violations = check_trace(parse_trace(crafted_trace(3)))
    assert [str(v) for v in violations] == [
        line
        for seq in (2, 3, 4)
        for line in (
            f"mode_correctness at #{seq}: substitution outside fault_tolerant mode "
            "without an entity failure",
            f"mode_correctness at #{seq}: substitution not followed by a fallback plan",
        )
    ]
