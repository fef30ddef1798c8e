"""Trace checkers: each one verifies a run-wide guarantee on an audit trace.

All checkers consume records from `parse_trace` (raw text plus decoded
values) and return violations instead of raising. Each is one forward
pass that keeps only what is still open (unhandled raises, open grants,
held roles and resources, substitutions awaiting a plan), so its work is
linear in the trace. The guarantees:

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
- replay fidelity (needs the scenario and the final store): replaying the
  trace over the scenario's store reproduces the final store byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .audit import AuditRecord, replay_store
from .engine import EngineConfig
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
DEFAULT_TP = EngineConfig().tp

LEGAL_TRANSITIONS = {
    ("normal", "emergency"),
    ("emergency", "normal"),
    ("emergency", "fault_tolerant"),
    ("fault_tolerant", "emergency"),
    ("normal", "disaster"),
    ("emergency", "disaster"),
    ("fault_tolerant", "disaster"),
}


def _polling_period(records: list[AuditRecord]) -> Fraction:
    """The tp of the trace's run_started header, else `DEFAULT_TP`."""
    return records[0].decoded.get("tp", DEFAULT_TP) if records else DEFAULT_TP


@dataclass(frozen=True)
class CheckViolation:
    check: str
    seq: int
    message: str

    def __str__(self) -> str:
        return f"{self.check} at #{self.seq}: {self.message}"


def check_responsiveness(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    tp = _polling_period(records)
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
    out: list[CheckViolation | None] = []
    mode = "normal"
    failed_entities: set[str] = set()
    # Per entity, the indices in `out` of the violations of substitutions at
    # `awaiting_ts` that the entity's next plan at that time may still clear.
    awaiting: dict[str, list[int]] = {}
    awaiting_ts = None
    for rec in records:
        kind = rec.kind
        if awaiting and rec.ts != awaiting_ts:
            awaiting.clear()
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
                awaiting_ts = rec.ts
                awaiting.setdefault(entity, []).append(len(out))
                message = "substitution not followed by a fallback plan"
                out.append(CheckViolation("mode_correctness", rec.seq, message))
        if kind == "plan_selected":
            strategy = rec.payload["strategy"]
            slots = awaiting.pop(rec.payload["entity"], ())
            if strategy != "optimal":
                for slot in slots:
                    out[slot] = None
            if (strategy == "optimal") != (rec.decoded["pv"] > 0):
                out.append(
                    CheckViolation(
                        "mode_correctness",
                        rec.seq,
                        f"strategy {strategy} inconsistent with pv={rec.payload['pv']}",
                    )
                )
    return [violation for violation in out if violation is not None]


def _grant_key(payload: dict[str, str]) -> tuple[str, str, str, str]:
    return (payload["erole"], payload["oid"], payload["op"], payload["td"])


def _match_grants(records: list[AuditRecord], ledger: dict[tuple, list], heads: dict[tuple, int]):
    """Pair each record with the oldest open grant it rescinds, or None.
    `ledger` holds the open grants: per (erole, oid, op, td) text key, its
    grants oldest first, of which those from `heads[key]` (0 when absent)
    on are unrescinded; a key goes with its last open grant. A rescind moves
    the head, so a key opened N times drains in O(N), and a key of an engine
    trace, opened once or twice, costs one short list where a deque takes a
    64-slot block."""
    for rec in records:
        grant = None
        if rec.kind == "permission_granted":
            ledger.setdefault(_grant_key(rec.payload), []).append(rec)
        elif rec.kind == "permission_rescinded":
            key = _grant_key(rec.payload)
            grants = ledger.get(key)
            if grants:
                head = heads.pop(key, 0) if len(grants) > 1 else 0
                grant = grants[head]
                if head + 1 == len(grants):
                    del ledger[key]
                else:
                    heads[key] = head + 1
        yield rec, grant


def check_grant_security(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    ledger: dict[tuple, list] = {}
    for rec, grant in _match_grants(records, ledger, {}):
        if rec.kind == "permission_rescinded" and grant is None:
            key = _grant_key(rec.payload)
            out.append(CheckViolation("grant_security", rec.seq, f"rescind without grant {key}"))
        elif rec.kind == "state_transition" and rec.payload["to"] in ("normal", "disaster"):
            for key in sorted(ledger):
                message = f"grant {key} still open entering {rec.payload['to']}"
                out.append(CheckViolation("grant_security", rec.seq, message))
    return out


def check_rescission_liveness(records: list[AuditRecord]) -> list[CheckViolation]:
    out: list[CheckViolation] = []
    tp = _polling_period(records)
    ledger: dict[tuple, list] = {}
    heads: dict[tuple, int] = {}
    for rec, grant in _match_grants(records, ledger, heads):
        if rec.kind == "permission_rescinded":
            key = _grant_key(rec.payload)
            if grant is None:
                message = f"rescind without open grant {key}"
                out.append(CheckViolation("rescission_liveness", rec.seq, message))
                continue
            deadline = grant.decoded["td"] + tp
            if rec.ts > deadline:
                message = f"grant {key} rescinded at {rec.ts}, after td+tp={deadline}"
                out.append(CheckViolation("rescission_liveness", rec.seq, message))
    if records:
        last_ts = records[-1].ts
        for key, grants in sorted(ledger.items()):
            for grant in grants[heads.get(key, 0) :]:
                if last_ts > grant.decoded["td"] + tp:
                    message = f"grant {key} never rescinded"
                    out.append(CheckViolation("rescission_liveness", grant.seq, message))
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
    # Per eid, the resources its starts took since it last ended (some may have been taken over).
    taken: dict[str, list[str]] = {}
    for rec in records:
        if rec.kind == "action_started":
            eid = rec.payload["eid"]
            mine = taken.setdefault(eid, [])
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
                mine.append(resource)
        elif rec.kind in ("action_finished", "action_failed"):
            eid = rec.payload["eid"]
            for resource in taken.pop(eid, ()):
                if in_use.get(resource) == eid:
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
    final_store: PolicyStore | None = None,
) -> list[CheckViolation]:
    """Run every checker that its inputs allow and pool the violations; replay
    fidelity replays from `scenario.store`, which a run leaves unchanged."""
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
    if scenario is not None and final_store is not None:
        out += check_replay_fidelity(records, scenario.store, final_store)
    return out
