"""Trace checkers: each one verifies a run-wide guarantee on an audit trace.

All checkers consume records from `parse_trace` (raw text plus decoded
values) and return violations instead of raising, so a single pass can
report every breach at once. The guarantees:

- responsiveness: every newly raised emergency gets a subject assignment,
  an explicit subject_unavailable, or a terminal outcome within one
  polling period of being raised;
- mode correctness: planning and staffing records only appear in
  emergency mode, transitions follow the state machine, and the optimal
  strategy is used exactly when the plan's value is positive;
- grant security: no emergency grant remains open when the system returns
  to normal or declares disaster;
- rescission liveness: every grant is rescinded exactly once, no later
  than one polling period after its expiry instant;
- subject exclusivity: a subject holds at most one emergency role at a
  time, and has it restored before the system returns to normal or
  declares disaster;
- resource exclusivity: two running actions never share a resource;
- gating (needs the scenario): no gated group starts an action while one
  of its environment gates is still open;
- replay fidelity (needs both store snapshots): replaying the trace over
  the initial store reproduces the final store byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .audit import AuditRecord, replay_store
from .model import ENV_ENTITY, PolicyStore, serialize_store
from .scenario import Scenario

STAFFING_KINDS = {
    "plan_selected",
    "role_assigned",
    "permission_granted",
    "subject_notified",
    "action_started",
}

# The polling period of a trace without a run_started header.
DEFAULT_TP = Fraction(1, 2)

LEGAL_TRANSITIONS = {
    ("normal", "emergency"),
    ("emergency", "normal"),
    ("emergency", "fault_tolerant"),
    ("fault_tolerant", "emergency"),
    ("normal", "disaster"),
    ("emergency", "disaster"),
    ("fault_tolerant", "disaster"),
}


@dataclass(frozen=True)
class CheckViolation:
    check: str
    seq: int
    message: str

    def __str__(self) -> str:
        return f"{self.check} at #{self.seq}: {self.message}"


def check_responsiveness(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    tp = records[0].decoded.get("tp", DEFAULT_TP) if records else DEFAULT_TP
    pending: dict[str, AuditRecord] = {}
    active: set[str] = set()

    def respond(eid: str, rec: AuditRecord) -> None:
        raised = pending.pop(eid, None)
        if raised is None:
            return
        if rec.ts - raised.ts > tp:
            out.append(
                CheckViolation(
                    "responsiveness",
                    raised.seq,
                    f"{eid} raised at {raised.ts} first handled at {rec.ts}",
                )
            )

    for rec in records:
        kind = rec.kind
        if kind == "emergency_raised":
            eid = rec.payload["eid"]
            if eid not in active:
                active.add(eid)
                pending[eid] = rec
        elif kind in ("role_assigned", "subject_unavailable"):
            respond(rec.payload["eid"], rec)
        elif kind == "emergency_expired":
            eid = rec.payload["eid"]
            respond(eid, rec)
            active.discard(eid)
        elif kind == "action_finished" and rec.payload["outcome"] == "success":
            active.discard(rec.payload["eid"])
        elif kind == "disaster" or (
            kind == "state_transition" and rec.payload["to"] == "disaster"
        ):
            for eid in sorted(pending):
                respond(eid, rec)
            active.clear()

    if records:
        last_ts = records[-1].ts
        for eid, raised in sorted(pending.items()):
            if last_ts - raised.ts > tp:
                out.append(
                    CheckViolation(
                        "responsiveness",
                        raised.seq,
                        f"{eid} raised at {raised.ts} never handled",
                    )
                )
    return out


def check_mode_correctness(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    mode = "normal"
    failed_entities: set[str] = set()
    for index, rec in enumerate(records):
        kind = rec.kind
        if kind == "state_transition":
            came, went = rec.payload["from"], rec.payload["to"]
            if came != mode:
                out.append(
                    CheckViolation(
                        "mode_correctness", rec.seq, f"transition from {came} but mode is {mode}"
                    )
                )
            if (came, went) not in LEGAL_TRANSITIONS:
                out.append(
                    CheckViolation(
                        "mode_correctness", rec.seq, f"illegal transition {came} -> {went}"
                    )
                )
            mode = went
        elif kind == "entity_failed":
            failed_entities.add(rec.payload["entity"])
        elif kind in STAFFING_KINDS:
            if mode != "emergency":
                out.append(
                    CheckViolation("mode_correctness", rec.seq, f"{kind} while mode is {mode}")
                )
        if kind == "ft_substitution":
            entity = rec.payload["from"]
            if mode != "fault_tolerant" and entity not in failed_entities:
                out.append(
                    CheckViolation(
                        "mode_correctness",
                        rec.seq,
                        "substitution outside fault_tolerant mode without an entity failure",
                    )
                )
            if entity not in failed_entities:
                follow = next(
                    (
                        r
                        for r in itertools.islice(records, index + 1, None)
                        if r.kind == "plan_selected"
                        and r.payload["entity"] == entity
                        and r.ts == rec.ts
                    ),
                    None,
                )
                if follow is None or follow.payload["strategy"] == "optimal":
                    out.append(
                        CheckViolation(
                            "mode_correctness",
                            rec.seq,
                            "substitution not followed by a fallback plan",
                        )
                    )
        if kind == "plan_selected":
            strategy = rec.payload["strategy"]
            if (strategy == "optimal") != (rec.decoded["pv"] > 0):
                out.append(
                    CheckViolation(
                        "mode_correctness",
                        rec.seq,
                        f"strategy {strategy} inconsistent with pv={rec.payload['pv']}",
                    )
                )
    return out


def _grant_key(payload: dict[str, str]) -> tuple[str, str, str, str]:
    return (payload["erole"], payload["oid"], payload["op"], payload["td"])


def check_grant_security(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    open_count: dict[tuple[str, str, str, str], int] = {}
    for rec in records:
        if rec.kind == "permission_granted":
            key = _grant_key(rec.payload)
            open_count[key] = open_count.get(key, 0) + 1
        elif rec.kind == "permission_rescinded":
            key = _grant_key(rec.payload)
            count = open_count.get(key, 0)
            if count <= 0:
                out.append(
                    CheckViolation("grant_security", rec.seq, f"rescind without grant {key}")
                )
            else:
                open_count[key] = count - 1
        elif rec.kind == "state_transition" and rec.payload["to"] in ("normal", "disaster"):
            leftovers = sorted(k for k, v in open_count.items() if v > 0)
            for key in leftovers:
                out.append(
                    CheckViolation(
                        "grant_security",
                        rec.seq,
                        f"grant {key} still open entering {rec.payload['to']}",
                    )
                )
    return out


def check_rescission_liveness(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    tp = records[0].decoded.get("tp", DEFAULT_TP) if records else DEFAULT_TP
    open_grants: dict[tuple[str, str, str, str], list[AuditRecord]] = {}
    for rec in records:
        if rec.kind == "permission_granted":
            open_grants.setdefault(_grant_key(rec.payload), []).append(rec)
        elif rec.kind == "permission_rescinded":
            key = _grant_key(rec.payload)
            queue = open_grants.get(key)
            if not queue:
                out.append(
                    CheckViolation(
                        "rescission_liveness", rec.seq, f"rescind without open grant {key}"
                    )
                )
                continue
            deadline = queue.pop(0).decoded["td"] + tp
            if rec.ts > deadline:
                out.append(
                    CheckViolation(
                        "rescission_liveness",
                        rec.seq,
                        f"grant {key} rescinded at {rec.ts}, after td+tp={deadline}",
                    )
                )
    if records:
        last_ts = records[-1].ts
        for key, queue in sorted(open_grants.items()):
            for grant in queue:
                if last_ts > grant.decoded["td"] + tp:
                    out.append(
                        CheckViolation(
                            "rescission_liveness", grant.seq, f"grant {key} never rescinded"
                        )
                    )
    return out


def check_subject_exclusivity(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    holding: dict[str, str] = {}
    for rec in records:
        if rec.kind == "role_assigned":
            sid = rec.payload["sid"]
            if sid in holding:
                out.append(
                    CheckViolation(
                        "subject_exclusivity",
                        rec.seq,
                        f"{sid} assigned {rec.payload['erole']} while holding {holding[sid]}",
                    )
                )
            holding[sid] = rec.payload["erole"]
        elif rec.kind == "role_restored":
            sid = rec.payload["sid"]
            if sid not in holding:
                out.append(
                    CheckViolation("subject_exclusivity", rec.seq, f"{sid} restored while idle")
                )
            holding.pop(sid, None)
        elif rec.kind == "state_transition" and rec.payload["to"] in ("normal", "disaster"):
            for sid in sorted(holding):
                out.append(
                    CheckViolation(
                        "subject_exclusivity",
                        rec.seq,
                        f"{sid} still holds {holding[sid]} entering {rec.payload['to']}",
                    )
                )
    return out


def check_resource_exclusivity(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    in_use: dict[str, str] = {}
    for rec in records:
        if rec.kind == "action_started":
            eid = rec.payload["eid"]
            for resource in rec.decoded["resources"]:
                holder = in_use.get(resource)
                if holder is not None:
                    out.append(
                        CheckViolation(
                            "resource_exclusivity",
                            rec.seq,
                            f"{eid} started using {resource} already held by {holder}",
                        )
                    )
                in_use[resource] = eid
        elif rec.kind in ("action_finished", "action_failed"):
            eid = rec.payload["eid"]
            for resource in [r for r, holder in in_use.items() if holder == eid]:
                del in_use[resource]
    return out


def check_gating(records: list[AuditRecord], scenario: Scenario) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    open_env: set[str] = set()
    for rec in records:
        if rec.kind == "emergency_raised":
            eid = rec.payload["eid"]
            if rec.payload["entity"] == ENV_ENTITY:
                open_env.add(eid)
        elif rec.kind == "action_finished" and rec.payload["outcome"] == "success":
            open_env.discard(rec.payload["eid"])
        elif rec.kind == "emergency_expired":
            open_env.discard(rec.payload["eid"])
        elif rec.kind == "action_started":
            eid = rec.payload["eid"]
            em = scenario.emergencies.get(eid)
            if em is None:
                continue
            blocked_by = scenario.store.gates_for(em.entity) & open_env
            if blocked_by:
                out.append(
                    CheckViolation(
                        "gating",
                        rec.seq,
                        f"{eid} started while gates {sorted(blocked_by)} are open",
                    )
                )
    return out


def first_difference(ours: list[str], theirs: list[str], our_name: str, their_name: str) -> str:
    """Where two unequal line lists first differ, with the text of each side
    there, or with the longer side's text when the other ends first."""
    for number, (a, b) in enumerate(itertools.zip_longest(ours, theirs), start=1):
        if a != b:
            break
    if a is None:
        shorter, longer, text = our_name, their_name, b
    elif b is None:
        shorter, longer, text = their_name, our_name, a
    else:
        return f"at line {number}: {our_name} has {a!r}, {their_name} has {b!r}"
    return f"at line {number}: the {shorter} is shorter ({number - 1} lines), {longer} has {text!r}"


def check_replay_fidelity(
    records: list[AuditRecord], initial_store: PolicyStore, final_store: PolicyStore
) -> list[CheckViolation]:
    replayed = replay_store(initial_store, records)
    got = serialize_store(replayed)
    want = serialize_store(final_store)
    if got == want:
        return []
    where = first_difference(got.splitlines(), want.splitlines(), "replayed store", "actual store")
    return [CheckViolation("replay_fidelity", 0, f"stores differ {where}")]


def check_trace(
    records: list[AuditRecord],
    scenario: Scenario | None = None,
    initial_store: PolicyStore | None = None,
    final_store: PolicyStore | None = None,
) -> list[CheckViolation]:
    """Run every checker that its inputs allow and pool the violations."""
    out: list[CheckViolation] = []
    if not records:
        return [CheckViolation("structure", 0, "empty trace")]
    if records[0].kind != "run_started":
        out.append(CheckViolation("structure", records[0].seq, "trace must open with run_started"))
    out += check_responsiveness(records)
    out += check_mode_correctness(records)
    out += check_grant_security(records)
    out += check_rescission_liveness(records)
    out += check_subject_exclusivity(records)
    out += check_resource_exclusivity(records)
    if scenario is not None:
        out += check_gating(records, scenario)
    if initial_store is not None and final_store is not None:
        out += check_replay_fidelity(records, initial_store, final_store)
    return out
