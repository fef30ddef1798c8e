"""Append-only audit trail with a fixed, replayable line format.

Each record serializes as

    seq|timestamp|kind|key=value,key=value,...

with a fixed key order per kind, timestamps as exact decimals, and ';' as
the separator inside list-valued fields ('-' stands for empty or absent).
Two runs with equal inputs and seed produce byte-identical traces.

Records carry enough payload to rebuild every policy-store mutation, so
replaying a trace against the run's initial store reproduces its final
store exactly; that replay is the non-repudiation check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .exact import format_number
from .model import AclEntry, Op, PolicyStore, SystemObject

# Fixed payload layout per kind. Appending with any other keys is an error.
KIND_FIELDS: dict[str, tuple[str, ...]] = {
    "run_started": ("scenario", "seed", "tp", "horizon", "alpha", "beta", "k", "fallback"),
    "state_transition": ("from", "to"),
    "emergency_raised": ("eid", "entity", "prio", "ed"),
    "plan_selected": ("entity", "pv", "strategy", "path", "epoch", "gate"),
    "role_assigned": ("sid", "erole", "eid", "saved"),
    "permission_granted": ("erole", "oid", "op", "td", "eid", "sid"),
    "subject_notified": ("sid", "eid", "erole"),
    "subject_unavailable": ("eid", "erole"),
    "action_started": ("eid", "tsid", "sid", "start", "end", "resources"),
    "action_finished": ("eid", "tsid", "sid", "outcome"),
    "action_failed": ("eid", "tsid", "sid", "reason"),
    "permission_rescinded": ("erole", "oid", "op", "td", "reason", "eid"),
    "role_restored": ("sid", "erole", "restored"),
    "ft_substitution": ("from", "to", "acl", "roles", "notified"),
    "disaster": ("entity", "reason"),
    "emergency_expired": ("eid", "reason"),
    "entity_failed": ("entity",),
    "outcome_forced": ("eid", "tsid", "outcome"),
    "access_checked": ("sid", "oid", "op", "decision", "reason"),
}


def _parse_list(text: str) -> list[str]:
    return [] if text == "-" else text.split(";")


def _parse_acl(text: str) -> list[AclEntry]:
    entries = []
    for chunk in _parse_list(text):
        role, op, td = chunk.split(":")
        entries.append(AclEntry(role, Op(op), None if td == "-" else Fraction(td)))
    return entries


# The payload fields some consumer converts, by name, with the conversion it
# applies. parse_trace runs each one, so checkers and replay only ever meet
# values they can convert.
FIELD_PARSERS = {
    "td": Fraction,
    "pv": Fraction,
    "tp": Fraction,
    "horizon": Fraction,
    "seed": int,
    "op": Op,
    "acl": _parse_acl,
}


# Characters the line format uses as separators.
_ILLEGAL_IN_VALUE = re.compile(r"[|,=\n]").search


class AuditFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    ts: Fraction
    kind: str
    payload: dict[str, str]

    def to_line(self) -> str:
        pairs = ",".join(f"{k}={self.payload[k]}" for k in KIND_FIELDS[self.kind])
        return f"{self.seq}|{format_number(self.ts)}|{self.kind}|{pairs}"


def fmt_value(value) -> str:
    """Payload value formatter: '-' for empty, ';' joins sequences."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_number(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else list(value)
        return ";".join(str(i) for i in items) if items else "-"
    text = str(value)
    return text if text else "-"


class AuditLog:
    def __init__(self):
        self.records: list[AuditRecord] = []

    def append(self, kind: str, ts: Fraction, **payload) -> AuditRecord:
        fields = KIND_FIELDS.get(kind)
        if fields is None:
            raise ValueError(f"unknown audit kind {kind!r}")
        # 'from' is a keyword, so callers pass from_=...
        cleaned = {k.rstrip("_"): fmt_value(v) for k, v in payload.items()}
        if set(cleaned) != set(fields):
            raise ValueError(f"{kind} payload keys {sorted(cleaned)} != {sorted(fields)}")
        for value in cleaned.values():
            if _ILLEGAL_IN_VALUE(value):
                raise ValueError(f"illegal character in payload value {value!r}")
        record = AuditRecord(len(self.records) + 1, ts, kind, cleaned)
        self.records.append(record)
        return record

    def to_text(self) -> str:
        return "\n".join(r.to_line() for r in self.records) + ("\n" if self.records else "")


def parse_trace(text: str) -> list[AuditRecord]:
    """Parse a trace file; raises AuditFormatError with the offending line."""
    records: list[AuditRecord] = []
    # A run stamps many records with each clock value.
    stamps: dict[str, Fraction] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 4:
            raise AuditFormatError(line_no, "expected seq|timestamp|kind|payload")
        seq_text, ts_text, kind, payload_text = parts
        try:
            seq = int(seq_text)
        except ValueError:
            raise AuditFormatError(line_no, f"bad sequence number {seq_text!r}") from None
        ts = stamps.get(ts_text)
        if ts is None:
            try:
                ts = stamps[ts_text] = Fraction(ts_text)
            except (ValueError, ZeroDivisionError):
                raise AuditFormatError(line_no, f"bad timestamp {ts_text!r}") from None
        fields = KIND_FIELDS.get(kind)
        if fields is None:
            raise AuditFormatError(line_no, f"unknown kind {kind!r}")
        payload: dict[str, str] = {}
        for chunk in payload_text.split(","):
            if "=" not in chunk:
                raise AuditFormatError(line_no, f"bad payload chunk {chunk!r}")
            key, value = chunk.split("=", 1)
            payload[key] = value
        if tuple(payload) != fields:
            raise AuditFormatError(line_no, f"payload keys {tuple(payload)} != {fields}")
        for key, value in payload.items():
            parse = FIELD_PARSERS.get(key)
            if parse is None:
                continue
            try:
                parse(value)
            except (ValueError, ZeroDivisionError):
                raise AuditFormatError(line_no, f"bad {key} {value!r}") from None
        if seq != len(records) + 1:
            raise AuditFormatError(line_no, f"sequence {seq} out of order")
        if records and ts < records[-1].ts:
            raise AuditFormatError(line_no, "timestamps must be non-decreasing")
        records.append(AuditRecord(seq, ts, kind, payload))
    return records


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_store(initial: PolicyStore, records: list[AuditRecord]) -> PolicyStore:
    """Apply every store mutation in `records` to a copy of `initial`."""
    store = initial.clone()
    for r in records:
        p = r.payload
        if r.kind == "role_assigned":
            sid, erole = p["sid"], p["erole"]
            store.ort[sid] = tuple(_parse_list(p["saved"]))
            store.srt.setdefault(sid, set()).add(erole)
            store.asrt[sid] = {erole}
        elif r.kind == "role_restored":
            sid, erole = p["sid"], p["erole"]
            store.asrt[sid] = set(_parse_list(p["restored"]))
            store.srt.get(sid, set()).discard(erole)
            store.ort.pop(sid, None)
        elif r.kind in ("permission_granted", "permission_rescinded"):
            # A record naming an object the store lacks changes nothing; the
            # grant checkers and replay fidelity report what it unbalances.
            obj = store.objects.get(p["oid"])
            if obj is None:
                continue
            entry = AclEntry(p["erole"], Op(p["op"]), Fraction(p["td"]))
            if r.kind == "permission_granted":
                obj.acl.append(entry)
            elif entry in obj.acl:
                obj.acl.remove(entry)
        elif r.kind == "ft_substitution":
            target = p["to"]
            entries = _parse_acl(p["acl"])
            if entries:
                store.objects.setdefault(target, SystemObject(target)).acl.extend(entries)
            roles = _parse_list(p["roles"])
            if roles:
                store.srt.setdefault(target, set()).update(roles)
                store.asrt.setdefault(target, set()).update(roles)
    return store


def encode_acl_entries(entries) -> str:
    """ft_substitution payload form of copied entries: role:op:td;..."""
    if not entries:
        return "-"
    chunks = []
    for entry in entries:
        td = "-" if entry.td is None else format_number(entry.td)
        chunks.append(f"{entry.role}:{entry.op.value}:{td}")
    return ";".join(chunks)
